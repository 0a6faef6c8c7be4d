"""The campaign service coordinator: an asyncio lease-based scheduler.

One coordinator process owns the journal directory and the truth about
every job.  The control flow per job:

1. **Submit.**  A spec is parsed, validated and canonicalized by
   :class:`~repro.faults.spec.CampaignSpec` and deduped; the campaign is
   built (golden run + trial plan) in an executor thread; the job id is
   the campaign fingerprint.  The spec is write-ahead journaled before
   the submit is acknowledged, and the job's trial checkpoint is loaded
   so a resubmitted or crash-recovered job starts from what is already
   durable.  A second submit of the same fingerprint *attaches* to the
   running job (or returns cached results) — it never re-executes trials.
2. **Lease.**  Pending trials are handed to socket workers as leased
   chunks with a heartbeat deadline.  An expired lease, a worker
   disconnect, or a dropped ack returns the chunk to the queue with
   capped exponential backoff (shared shape with worker respawn,
   :func:`repro.faults.supervisor.backoff_delay`).
3. **Commit.**  Worker acks carry canonical trial entries
   (:func:`repro.faults.parallel.trial_entry`).  Commit is at-most-once:
   per-connection in-order sequence numbers, lease ownership, and the
   already-committed record table all gate the write; stale or duplicate
   acks from a resurrected worker are discarded.  Accepted entries are
   appended to the job's checkpoint and flushed *before* the ack-ok, so
   an acknowledged trial is durable by definition.
4. **Degrade.**  With no workers connected past a grace period the
   coordinator runs chunks itself through the same commit path — the
   in-process serial engine as a fallback backend, mirroring the
   supervisor's ``PoolCollapse`` behavior.

Because trial plans are pre-sampled deterministically and every commit
is validated against the local plan, the records a job accumulates are
bit-identical to a cold in-process ``Campaign.run`` no matter how many
leases expired, acks were lost, or coordinators died along the way —
the chaos suite (``tests/test_service.py``) asserts exactly that.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from ..faults.parallel import CampaignCheckpoint, TrialPlan
from ..faults.spec import CampaignSpec
from ..faults.supervisor import backoff_delay, validate_seconds
from ..obs.registry import MetricsRegistry
from . import protocol
from .journal import JobJournal

#: trials per lease; smaller than the fork engine's chunk so lease churn
#: under chaos stays cheap (a lost chunk re-runs at most this many trials).
DEFAULT_CHUNK = 8
DEFAULT_LEASE_TIMEOUT = 15.0
#: seconds without any worker before the solo (in-process) path engages.
DEFAULT_SOLO_GRACE = 0.75


class _Chunk:
    """Pending work: trial indexes plus their retry state."""

    __slots__ = ("indexes", "attempt", "available_at")

    def __init__(self, indexes: List[int], attempt: int = 0, available_at: float = 0.0):
        self.indexes = indexes
        self.attempt = attempt
        self.available_at = available_at


class _Lease:
    """A chunk out with one worker, until acked or the deadline passes."""

    __slots__ = ("id", "job_id", "wid", "indexes", "deadline", "attempt")

    def __init__(
        self,
        lease_id: str,
        job_id: str,
        wid: str,
        indexes: List[int],
        deadline: float,
        attempt: int,
    ):
        self.id = lease_id
        self.job_id = job_id
        self.wid = wid
        self.indexes = indexes
        self.deadline = deadline
        self.attempt = attempt


class Job:
    """One campaign under service management."""

    __slots__ = (
        "id",
        "spec",
        "n_trials",
        "seed",
        "plan",
        "checkpoint",
        "records",
        "done_count",
        "resumed",
        "pending",
        "watchers",
        "state",
        "error",
        "result_entries",
    )

    def __init__(self, job_id: str, spec, n_trials: int, seed: int):
        self.id = job_id
        self.spec = spec
        self.n_trials = n_trials
        self.seed = seed
        #: the job's TrialPlan; None for a job served from its cached results
        self.plan: Optional[TrialPlan] = None
        self.checkpoint: Optional[CampaignCheckpoint] = None
        self.records: Optional[List] = None
        self.done_count = 0
        self.resumed = 0
        self.pending: List[_Chunk] = []
        self.watchers: List[asyncio.Queue] = []
        self.state = "running"  # running | finalizing | done | failed
        self.error: Optional[str] = None
        #: canonical entries in trial order, set when the job completes
        self.result_entries: Optional[List[Dict]] = None

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        if self.result_entries is not None:
            for entry in self.result_entries:
                counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
        elif self.records is not None:
            for record in self.records:
                if record is not None:
                    value = record.outcome.value
                    counts[value] = counts.get(value, 0) + 1
        return counts

    def summary(self) -> Dict:
        data = {
            "job": self.id,
            "state": self.state,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "done": self.done_count,
            "resumed": self.resumed,
            "counts": self.outcome_counts(),
        }
        if self.error:
            data["error"] = self.error
        return data


class CoordinatorServer:
    """The asyncio coordinator; one instance per journal directory."""

    def __init__(
        self,
        journal_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: int = DEFAULT_CHUNK,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        solo_grace: float = DEFAULT_SOLO_GRACE,
        solo: bool = True,
        chaos=None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        # A NaN lease deadline is never due, so a dead worker's chunk
        # would never be requeued.
        validate_seconds(lease_timeout, "lease_timeout")
        validate_seconds(solo_grace, "solo_grace")
        self.journal = JobJournal(journal_dir)
        self.host = host
        self.port = port
        self.chunk_size = max(1, chunk_size)
        self.lease_timeout = lease_timeout
        self.solo_grace = solo_grace
        self.solo = solo
        self.chaos = chaos
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.jobs: Dict[str, Job] = {}
        self.leases: Dict[str, _Lease] = {}
        self.workers: Dict[str, asyncio.StreamWriter] = {}
        self._spec_to_job: Dict[str, str] = {}
        self._builds: Dict[str, asyncio.Future] = {}
        self._journaled: set = set()
        self._worker_counter = 0
        self._lease_counter = 0
        self._last_worker_seen = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._stopping = False
        # Created inside start(): pre-3.10 asyncio primitives bind their
        # loop at construction, and the server object is built before it.
        self._closed: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, replay the journal, start background tasks."""
        self._closed = asyncio.Event()
        self.journal.open()
        recovered = self.journal.load()
        self._journaled = set(recovered)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for job_id, info in recovered.items():
            try:
                spec = CampaignSpec.from_json(info["spec"])
            except ValueError as exc:
                # Journaled by an older coordinator that admitted a spec
                # this one refuses: report it failed, never run it.
                job = self.jobs[job_id] = Job(job_id, None, 0, 0)
                job.state, job.error = "failed", f"journaled spec refused: {exc}"
                continue
            if info["done"] and self._load_cached_job(job_id, spec):
                continue
            # An in-flight job: rebuild from its journaled spec, resume
            # from its checkpoint, and put the remainder back on the queue.
            job, created = await self._get_or_create_job(spec)
            if created:
                self._counter("ipas_service_jobs_recovered_total").inc()
                self._service_event(
                    "job-recovered", job=job.id, resumed=job.resumed
                )
        self._tasks = [
            asyncio.get_running_loop().create_task(self._reaper_loop()),
            asyncio.get_running_loop().create_task(self._solo_loop()),
        ]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush every open journal."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in list(self.workers.values()):
            try:
                writer.close()
            except Exception:
                pass
        for job in self.jobs.values():
            if job.checkpoint is not None and job.state == "running":
                job.checkpoint.close()
            for queue in job.watchers:
                queue.put_nowait({"op": "failed", "job": job.id,
                                  "error": "coordinator shut down"})
        self.journal.close()
        if self._closed is not None:
            self._closed.set()

    async def wait_closed(self) -> None:
        if self._closed is not None:
            await self._closed.wait()

    # -- small helpers -----------------------------------------------------

    def _counter(self, name: str):
        return self.registry.counter(name)

    def _service_event(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.service_event(name, **args)

    # -- job construction --------------------------------------------------

    def _build_job(self, spec: CampaignSpec) -> Job:
        """Executor-thread body: golden run, plan, checkpoint resume."""
        n_trials = spec.trials
        plan = TrialPlan(spec.build(), n_trials, spec.seed)
        job = Job(plan.fingerprint, spec, n_trials, spec.seed)
        job.plan = plan
        job.records = [None] * n_trials
        job.checkpoint = plan.resume(self.journal.job_path(job.id), job.records)
        job.resumed = job.done_count = n_trials - job.records.count(None)
        remaining = [i for i in range(n_trials) if job.records[i] is None]
        job.pending = [
            _Chunk(remaining[k : k + self.chunk_size])
            for k in range(0, len(remaining), self.chunk_size)
        ]
        return job

    async def _get_or_create_job(self, spec: CampaignSpec) -> Tuple[Job, bool]:
        """Idempotent submission core: one build per canonical spec, one
        job per fingerprint, no matter how many submitters race."""
        key = spec.canonical()
        job_id = self._spec_to_job.get(key)
        if job_id is not None:
            return self.jobs[job_id], False
        pending_build = self._builds.get(key)
        if pending_build is not None:
            return (await pending_build), False
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._builds[key] = future
        try:
            built = await loop.run_in_executor(None, self._build_job, spec)
            existing = self.jobs.get(built.id)
            if existing is not None:
                # A different spec string reached the same fingerprint;
                # drop the duplicate build and attach.
                built.checkpoint.close()
                job, created = existing, False
            else:
                job, created = built, True
                self.jobs[job.id] = job
                if job.id not in self._journaled:
                    # WAL before acknowledging: a crash after this line
                    # resumes the job; a crash before it never admitted one.
                    self.journal.record_job(job.id, job.spec.to_json())
                    self._journaled.add(job.id)
                if job.resumed:
                    self._counter("ipas_service_trials_resumed_total").inc(
                        job.resumed
                    )
                if job.done_count == job.n_trials:
                    # Everything was already in the checkpoint (e.g. the
                    # crash happened after the last commit but before the
                    # done marker): finish without executing anything.
                    job.state = "finalizing"
                    loop.create_task(self._finalize(job))
            self._spec_to_job[key] = job.id
            future.set_result(job)
            return job, created
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consumed; concurrent awaiters still raise
            raise
        finally:
            del self._builds[key]

    def _load_cached_job(self, job_id: str, spec: CampaignSpec) -> bool:
        """Serve a journal-done job from its checkpoint, no rebuild.

        Returns ``False`` (caller falls back to a full rebuild) when the
        checkpoint does not actually hold every trial, or its header does
        not match the job.
        """
        n_trials, seed = spec.trials, spec.seed
        by_index = CampaignCheckpoint(
            self.journal.job_path(job_id), job_id, n_trials, seed,
            model=spec.fault_model,
        ).load()
        if len(by_index) != n_trials:
            return False
        job = Job(job_id, spec, n_trials, seed)
        job.state = "done"
        job.done_count = n_trials
        job.resumed = n_trials
        job.result_entries = [
            {k: v for k, v in by_index[i].items() if k != "crc"}
            for i in range(n_trials)
        ]
        self.jobs[job_id] = job
        self._spec_to_job[spec.canonical()] = job_id
        return True

    # -- scheduling --------------------------------------------------------

    def _next_chunk(self) -> Optional[Tuple[Job, _Chunk]]:
        now = time.monotonic()
        for job in self.jobs.values():
            if job.state != "running":
                continue
            for k, chunk in enumerate(job.pending):
                if chunk.available_at <= now:
                    return job, job.pending.pop(k)
        return None

    def _requeue_lease(self, lease: _Lease, reason: str) -> None:
        self.leases.pop(lease.id, None)
        job = self.jobs.get(lease.job_id)
        if job is None or job.state != "running":
            return
        indexes = [i for i in lease.indexes if job.records[i] is None]
        if not indexes:
            return
        attempt = lease.attempt + 1
        job.pending.append(
            _Chunk(
                indexes,
                attempt,
                time.monotonic() + backoff_delay(attempt),
            )
        )
        self._counter("ipas_service_leases_requeued_total").inc()
        self._service_event(
            "lease-requeued", job=job.id, reason=reason, trials=len(indexes)
        )

    def _requeue_worker_leases(self, wid: str) -> None:
        for lease in [l for l in self.leases.values() if l.wid == wid]:
            self._requeue_lease(lease, "worker-disconnect")

    async def _reaper_loop(self) -> None:
        while True:
            await asyncio.sleep(0.05)
            now = time.monotonic()
            for lease in [
                l for l in self.leases.values() if l.deadline <= now
            ]:
                self._counter("ipas_service_leases_expired_total").inc()
                self._service_event(
                    "lease-expired", job=lease.job_id, worker=lease.wid
                )
                self._requeue_lease(lease, "deadline")

    # -- serial degradation ------------------------------------------------

    def _run_chunk(self, job: Job, indexes: List[int]) -> List[Dict]:
        """Executor-thread body of the solo path: the in-process engine."""
        return [job.plan.run_entry(i) for i in indexes]

    async def _solo_loop(self) -> None:
        announced = False
        while True:
            await asyncio.sleep(0.05)
            if not self.solo or self.workers:
                announced = False
                continue
            if time.monotonic() - self._last_worker_seen < self.solo_grace:
                continue
            item = self._next_chunk()
            if item is None:
                continue
            job, chunk = item
            if not announced:
                announced = True
                self._service_event("serial-fallback", job=job.id)
            try:
                entries = await asyncio.get_running_loop().run_in_executor(
                    None, self._run_chunk, job, list(chunk.indexes)
                )
            except Exception as exc:
                self._fail_job(job, f"solo execution: {type(exc).__name__}: {exc}")
                continue
            self._counter("ipas_service_solo_trials_total").inc(len(entries))
            self._commit(job, entries)

    # -- commit path -------------------------------------------------------

    def _commit(self, job: Job, entries: List[Dict]) -> int:
        """Validate entries against the plan and make them durable.

        Returns the number of *fresh* trials committed; duplicates and
        plan mismatches are skipped silently (the duplicate is already
        durable, the mismatch will re-run).
        """
        plan = job.plan
        committed = plan.adopt(job.records, entries, f"service job {job.id}")
        for i in committed:
            job.checkpoint.append(i, plan.sites[i], plan.site_index[i], job.records[i])
        fresh = len(committed)
        job.done_count += fresh
        if not fresh:
            return 0
        self._counter("ipas_service_trials_committed_total").inc(fresh)
        # Durable before anything observes the commit: the flush precedes
        # the ack-ok, the watcher notification, and — deliberately — the
        # chaos kill, which therefore models a crash-after-durable.
        job.checkpoint.flush()
        self._notify(
            job,
            {
                "op": "progress",
                "job": job.id,
                "done": job.done_count,
                "n_trials": job.n_trials,
            },
        )
        if self.chaos is not None:
            for _ in range(fresh):
                self.chaos.on_commit()
        if job.done_count == job.n_trials and job.state == "running":
            job.state = "finalizing"
            asyncio.get_running_loop().create_task(self._finalize(job))
        return fresh

    async def _finalize(self, job: Job) -> None:
        try:
            # Same static-vs-dynamic consistency sweep the in-process
            # engine runs after assembly.
            await asyncio.get_running_loop().run_in_executor(
                None, job.plan.sanitize, job.records
            )
        except Exception as exc:
            self._fail_job(job, f"sanitize: {type(exc).__name__}: {exc}")
            return
        job.checkpoint.close()
        job.result_entries = [
            job.plan.entry(i, record) for i, record in enumerate(job.records)
        ]
        job.state = "done"
        self.journal.record_done(job.id)
        self._counter("ipas_service_jobs_completed_total").inc()
        self._service_event("job-done", job=job.id, trials=job.n_trials)
        self._notify(
            job,
            {"op": "done", "job": job.id, "counts": job.outcome_counts()},
        )

    def _fail_job(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        if job.checkpoint is not None:
            job.checkpoint.close()
        self._notify(job, {"op": "failed", "job": job.id, "error": error})

    def _notify(self, job: Job, event: Dict) -> None:
        for queue in list(job.watchers):
            queue.put_nowait(event)

    # -- connection handling -----------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        conn = {"wid": None, "seq": 0}
        try:
            while True:
                message = await protocol.read_message(reader)
                if message is None:
                    break
                if self.chaos is not None and self.chaos.on_message():
                    self._service_event("chaos-reset")
                    writer.transport.abort()
                    break
                op = message.get("op")
                if "seq" in message:
                    # Worker channel: strict in-order sequencing.  A gap
                    # means frames were lost or replayed — kill the
                    # connection, let the worker re-handshake.
                    expected = conn["seq"] + 1
                    if message["seq"] != expected:
                        await self._send_reply(
                            writer,
                            {
                                "ok": False,
                                "error": (
                                    f"out-of-order seq {message['seq']} "
                                    f"(expected {expected})"
                                ),
                            },
                        )
                        break
                    conn["seq"] = expected
                elif conn["wid"] is not None:
                    await self._send_reply(
                        writer,
                        {"ok": False, "error": "worker message without seq"},
                    )
                    break
                if (
                    op == "ack"
                    and self.chaos is not None
                    and self.chaos.on_ack()
                ):
                    # Lost-ack injection: the records never commit, no
                    # reply is sent; the worker times out and reconnects,
                    # and its resent ack is discarded as stale.
                    self._service_event("chaos-drop-ack")
                    continue
                try:
                    reply = await self._dispatch(op, message, conn, writer)
                except Exception as exc:
                    reply = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                if reply is not None:
                    await self._send_reply(writer, reply)
                if op == "watch" and reply is not None and reply.get("ok"):
                    await self._stream_job(writer, message.get("job"))
                if op == "shutdown" and reply is not None and reply.get("ok"):
                    asyncio.get_running_loop().create_task(self.stop())
                    break
        except (ConnectionError, OSError, protocol.ProtocolError):
            pass
        finally:
            wid = conn["wid"]
            if wid is not None and self.workers.pop(wid, None) is not None:
                self._counter("ipas_service_worker_disconnects_total").inc()
                self._last_worker_seen = time.monotonic()
                self._requeue_worker_leases(wid)
            try:
                writer.close()
            except Exception:
                pass

    async def _send_reply(self, writer, reply: Dict) -> None:
        if self.chaos is not None:
            delay = self.chaos.reply_delay()
            if delay:
                self._service_event("chaos-delay", seconds=delay)
                await asyncio.sleep(delay)
        protocol.send_message(writer, reply)
        await writer.drain()

    async def _stream_job(self, writer, job_id: Optional[str]) -> None:
        job = self.jobs.get(job_id or "")
        if job is None or job.state in ("done", "failed"):
            return
        queue: asyncio.Queue = asyncio.Queue()
        job.watchers.append(queue)
        try:
            while True:
                event = await queue.get()
                protocol.send_message(writer, event)
                await writer.drain()
                if event.get("op") in ("done", "failed"):
                    break
        finally:
            if queue in job.watchers:
                job.watchers.remove(queue)

    async def _dispatch(
        self, op: str, message: Dict, conn: Dict, writer
    ) -> Optional[Dict]:
        if op == "hello":
            self._worker_counter += 1
            wid = f"w{self._worker_counter}"
            conn["wid"] = wid
            self.workers[wid] = writer
            self._last_worker_seen = time.monotonic()
            self._counter("ipas_service_worker_connects_total").inc()
            return {"ok": True, "op": "hello-ok", "worker": wid}

        if op == "lease":
            if conn["wid"] is None:
                return {"ok": False, "error": "lease before hello"}
            item = self._next_chunk()
            if item is None:
                return {"ok": True, "op": "idle", "backoff": 0.1}
            job, chunk = item
            self._lease_counter += 1
            lease = _Lease(
                f"l{self._lease_counter}",
                job.id,
                conn["wid"],
                chunk.indexes,
                time.monotonic() + self.lease_timeout,
                chunk.attempt,
            )
            self.leases[lease.id] = lease
            self._counter("ipas_service_leases_granted_total").inc()
            return {
                "ok": True,
                "op": "lease",
                "lease": lease.id,
                "job": job.id,
                "spec": job.spec.to_json(),
                "indexes": chunk.indexes,
                "timeout": self.lease_timeout,
            }

        if op == "heartbeat":
            lease = self.leases.get(message.get("lease") or "")
            if lease is not None and lease.wid == conn["wid"]:
                lease.deadline = time.monotonic() + self.lease_timeout
            return None  # one-way: heartbeats never consume a reply slot

        if op == "ack":
            wid = conn["wid"]
            lease = self.leases.get(message.get("lease") or "")
            if lease is None or lease.wid != wid:
                # At-most-once gate: the lease is gone (expired, requeued
                # after a disconnect, or already acked) or belongs to a
                # previous incarnation of this worker.  The records are
                # NOT committed — the chunk re-runs under its new lease.
                self._counter("ipas_service_acks_discarded_total").inc()
                self._service_event("ack-discarded", worker=wid or "?")
                return {"ok": True, "op": "ack-stale"}
            del self.leases[lease.id]
            job = self.jobs.get(lease.job_id)
            if job is None or job.state not in ("running",):
                self._counter("ipas_service_acks_discarded_total").inc()
                return {"ok": True, "op": "ack-stale"}
            if message.get("error"):
                self._fail_job(job, f"worker {wid}: {message['error']}")
                return {"ok": True, "op": "ack-ok", "committed": 0}
            committed = self._commit(job, message.get("records") or [])
            self._counter("ipas_service_acks_committed_total").inc()
            return {"ok": True, "op": "ack-ok", "committed": committed}

        if op == "submit":
            try:
                spec = CampaignSpec.from_json(message.get("spec"))
            except ValueError as exc:
                return {"ok": False, "error": str(exc)}
            try:
                job, created = await self._get_or_create_job(spec)
            except Exception as exc:
                return {
                    "ok": False,
                    "error": f"build failed: {type(exc).__name__}: {exc}",
                }
            if created:
                disposition = "submitted"
                self._counter("ipas_service_jobs_submitted_total").inc()
                self._service_event(
                    "job-submitted", job=job.id, trials=job.n_trials
                )
            elif job.state == "done":
                disposition = "cached"
                self._counter("ipas_service_jobs_cached_total").inc()
            elif job.state == "failed":
                disposition = "failed"
            else:
                disposition = "attached"
                self._counter("ipas_service_jobs_attached_total").inc()
            reply = {"ok": True}
            reply.update(job.summary())
            # how THIS submission was treated, as opposed to the job's
            # own lifecycle state: submitted | attached | cached | failed
            reply["disposition"] = disposition
            return reply

        if op == "status":
            job_id = message.get("job")
            if job_id is not None:
                job = self.jobs.get(job_id)
                if job is None:
                    return {"ok": False, "error": f"unknown job {job_id!r}"}
                reply = {"ok": True}
                reply.update(job.summary())
                return reply
            return {
                "ok": True,
                "jobs": [job.summary() for job in self.jobs.values()],
                "workers": len(self.workers),
                "leases": len(self.leases),
            }

        if op == "watch":
            job = self.jobs.get(message.get("job") or "")
            if job is None:
                return {"ok": False, "error": f"unknown job {message.get('job')!r}"}
            reply = {"ok": True}
            reply.update(job.summary())
            return reply

        if op == "results":
            job = self.jobs.get(message.get("job") or "")
            if job is None:
                return {"ok": False, "error": f"unknown job {message.get('job')!r}"}
            if job.state == "failed":
                return {"ok": False, "error": job.error or "job failed"}
            if job.state != "done":
                return {
                    "ok": False,
                    "error": f"job {job.id} is {job.state}, not done",
                }
            return {
                "ok": True,
                "job": job.id,
                "entries": job.result_entries,
                "counts": job.outcome_counts(),
            }

        if op == "metrics":
            return {"ok": True, "metrics": self.registry.as_dict()}

        if op == "ping":
            return {"ok": True, "op": "pong"}

        if op == "shutdown":
            return {"ok": True, "op": "bye"}

        return {"ok": False, "error": f"unknown op {op!r}"}
