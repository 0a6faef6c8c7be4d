"""Fault-tolerant supervision of campaign worker pools.

The parallel engine's workers execute untrusted-by-construction work: every
trial deliberately corrupts interpreter state, and at production scale the
harness itself — not the science — dominates failures (fleet-scale SDC
studies run millions of trials and treat injector robustness as a
first-class problem).  A ``multiprocessing.Pool`` cannot express the
recovery we need: one dead worker poisons the pool, and one hung worker
stalls the campaign forever.

This module owns the workers directly — one forked process and one duplex
pipe each — and supervises them:

* **Death detection.**  A worker that exits (crash, OOM kill, chaos) closes
  its pipe; the supervisor sees EOF, attributes the failure to the first
  unacknowledged trial of the in-flight chunk (results are acked in order,
  so that is the trial being executed), and requeues the rest.
* **Hang detection.**  Each dispatched chunk carries a wall-clock deadline
  (``trial_timeout`` × chunk length) on top of the interpreter's own cycle
  budget; a worker past its deadline is killed and handled like a death.
* **Respawn with backoff.**  Dead workers are replaced, up to
  ``max_respawns``, with capped exponential backoff while failures are
  consecutive.
* **Quarantine.**  A trial that repeatedly kills its worker is a *poison
  trial*: after ``max_retries`` re-attempts it is delivered as a structured
  :class:`TrialFailure` instead of aborting the campaign.
* **Graceful collapse.**  When the pool cannot be sustained (respawn budget
  exhausted, or ``on_worker_failure="serial"``), the supervisor drains what
  completed and raises :class:`PoolCollapse` carrying the undelivered
  items; the caller finishes them in-process.

Everything here is generic over ``fn(payload) -> result``: the statistical
campaign and the MPI campaign both run on it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: supported reactions to a worker death/hang.
ON_FAILURE_CHOICES = ("respawn", "serial", "abort")

DEFAULT_MAX_RETRIES = 2
DEFAULT_MAX_RESPAWNS = 8
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def backoff_delay(
    consecutive_failures: int,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
) -> float:
    """Capped exponential backoff: ``base * 2^(n-1)``, clamped to ``cap``.

    Shared by worker respawn (here) and service lease requeue
    (:mod:`repro.service.coordinator`), so both retry ladders have one
    shape and one pair of knobs.
    """
    if consecutive_failures <= 0:
        return 0.0
    return min(base * (2 ** (consecutive_failures - 1)), cap)


def validate_trial_timeout(value: Optional[float], name: str = "trial_timeout") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is ``None`` (no
    deadline) or a finite number of seconds > 0.  A NaN deadline never
    passes, so accepting one would silently turn hang detection off."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number of seconds > 0, got {value}")


def validate_max_retries(value: int, name: str = "max_retries") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def validate_on_worker_failure(value: str, name: str = "on_worker_failure") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is one of
    :data:`ON_FAILURE_CHOICES`."""
    if value not in ON_FAILURE_CHOICES:
        raise ValueError(f"{name} must be one of {ON_FAILURE_CHOICES}, got {value!r}")


class WorkerFailureError(RuntimeError):
    """A worker failed and the policy said to abort (or a trial raised)."""


class PoolCollapse(Exception):
    """The worker pool cannot continue; ``remaining`` holds the
    undelivered ``(index, payload)`` items for in-process completion."""

    def __init__(self, remaining: List[Tuple[int, Any]], reason: str):
        super().__init__(reason)
        self.remaining = remaining
        self.reason = reason


class TrialFailure:
    """Structured record of a harness-level trial failure (quarantine).

    Unlike the five scientific outcomes, this one says nothing about the
    program under injection — it says the *harness* could not complete the
    trial: every worker that attempted it died (``reason="crash"``) or
    blew its wall-clock deadline (``reason="hang"``).
    """

    __slots__ = ("reason", "attempts", "workers_lost", "detail")

    def __init__(self, reason: str, attempts: int, workers_lost: int, detail: str = ""):
        self.reason = reason
        self.attempts = attempts
        self.workers_lost = workers_lost
        self.detail = detail

    def as_dict(self) -> Dict:
        return {
            "reason": self.reason,
            "attempts": self.attempts,
            "workers_lost": self.workers_lost,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TrialFailure":
        return cls(
            data.get("reason", "unknown"),
            data.get("attempts", 0),
            data.get("workers_lost", 0),
            data.get("detail", ""),
        )

    def __repr__(self) -> str:
        return (
            f"<TrialFailure {self.reason} after {self.attempts} attempts "
            f"({self.workers_lost} workers lost)>"
        )


class SupervisorPolicy:
    """Knobs controlling worker recovery.

    ``trial_timeout`` — wall-clock seconds allowed per trial; a chunk's
    deadline is ``trial_timeout × len(chunk)``.  ``None`` disables hang
    detection (the interpreter's cycle budget still bounds *simulated*
    hangs).  ``max_retries`` — re-attempts granted to a trial whose worker
    died before it is quarantined.  ``on_worker_failure`` — ``"respawn"``
    (default), ``"serial"`` (collapse to in-process execution on first
    failure), or ``"abort"`` (raise).  ``max_respawns`` bounds replacement
    workers per campaign; ``backoff_base``/``backoff_cap`` shape the
    exponential respawn delay.
    """

    __slots__ = (
        "trial_timeout",
        "max_retries",
        "on_worker_failure",
        "max_respawns",
        "backoff_base",
        "backoff_cap",
    )

    def __init__(
        self,
        trial_timeout: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        on_worker_failure: str = "respawn",
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ):
        validate_on_worker_failure(on_worker_failure)
        validate_trial_timeout(trial_timeout)
        validate_max_retries(max_retries)
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self.trial_timeout = trial_timeout
        self.max_retries = max_retries
        self.on_worker_failure = on_worker_failure
        self.max_respawns = max_respawns
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    @classmethod
    def from_env(cls) -> "SupervisorPolicy":
        """Defaults, overridable per process by ``IPAS_TRIAL_TIMEOUT``,
        ``IPAS_MAX_RETRIES``, and ``IPAS_ON_WORKER_FAILURE``; a bad value is
        a ``ValueError`` naming its variable."""
        timeout_env = os.environ.get("IPAS_TRIAL_TIMEOUT")
        retries_env = os.environ.get("IPAS_MAX_RETRIES")
        failure_env = os.environ.get("IPAS_ON_WORKER_FAILURE") or "respawn"
        try:
            trial_timeout = float(timeout_env) if timeout_env else None
        except ValueError:
            raise ValueError(
                f"IPAS_TRIAL_TIMEOUT must be a number, got {timeout_env!r}"
            )
        try:
            max_retries = int(retries_env) if retries_env else DEFAULT_MAX_RETRIES
        except ValueError:
            raise ValueError(f"IPAS_MAX_RETRIES must be an integer, got {retries_env!r}")
        validate_trial_timeout(trial_timeout, "IPAS_TRIAL_TIMEOUT")
        validate_max_retries(max_retries, "IPAS_MAX_RETRIES")
        validate_on_worker_failure(failure_env, "IPAS_ON_WORKER_FAILURE")
        return cls(
            trial_timeout=trial_timeout,
            max_retries=max_retries,
            on_worker_failure=failure_env,
        )

    @classmethod
    def resolve(cls, policy: Optional["SupervisorPolicy"] = None) -> "SupervisorPolicy":
        """The effective policy: ``policy``, else :meth:`from_env`."""
        return policy if policy is not None else cls.from_env()

    def __repr__(self) -> str:
        return (
            f"<SupervisorPolicy timeout={self.trial_timeout} "
            f"retries={self.max_retries} on_failure={self.on_worker_failure!r} "
            f"respawns={self.max_respawns}>"
        )


# -- worker side ---------------------------------------------------------------


def _worker_main(conn, fn, chaos) -> None:
    """Worker loop: receive a chunk of ``(index, payload)``, ack each result
    in order, signal chunk completion, repeat until the ``None`` sentinel."""
    if chaos is not None:
        chaos.arm()
    try:
        while True:
            chunk = conn.recv()
            if chunk is None:
                return
            for index, payload in chunk:
                if chaos is not None:
                    chaos.before_trial(index)
                started = time.perf_counter()
                try:
                    result = fn(payload)
                except BaseException:
                    conn.send(("err", index, traceback.format_exc()))
                    return
                conn.send(("ok", index, result, time.perf_counter() - started))
            conn.send(("done",))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- supervisor side -----------------------------------------------------------


class _Worker:
    __slots__ = ("proc", "conn", "inflight", "deadline", "wid")

    def __init__(self, proc, conn, wid: int = 0):
        self.proc = proc
        self.conn = conn
        self.inflight: List[Tuple[int, Any]] = []
        self.deadline: Optional[float] = None
        #: stable lane id for result attribution (respawns get fresh ids,
        #: so a trace shows replacement workers as new lanes)
        self.wid = wid


def _bump(stats, attr: str, amount=1) -> None:
    if stats is not None:
        setattr(stats, attr, getattr(stats, attr) + amount)


def run_supervised(
    fn: Callable[[Any], Any],
    items: Sequence[Tuple[int, Any]],
    n_jobs: int,
    deliver: Callable[[int, Any, float], None],
    policy: Optional[SupervisorPolicy] = None,
    stats=None,
    chaos=None,
    chunk_size: Optional[int] = None,
) -> None:
    """Map ``fn`` over ``items`` with a supervised pool of forked workers.

    ``deliver(index, result, seconds, wid)`` fires in completion order,
    with ``wid`` the lane id of the worker that produced the result
    (respawned workers get fresh ids); a
    quarantined item delivers a :class:`TrialFailure` as its result.
    Payloads and results cross the pipe and must pickle; ``fn`` itself is
    inherited by fork and may close over arbitrary state.  Raises
    :class:`PoolCollapse` (with the undelivered items) when the pool cannot
    continue, or :class:`WorkerFailureError` under the ``"abort"`` policy.
    """
    policy = SupervisorPolicy.resolve(policy)
    if chunk_size is None:
        chunk_size = max(1, min(16, len(items) // (n_jobs * 2) or 1))
    ctx = multiprocessing.get_context("fork")

    pending: deque = deque(items)
    total = len(items)
    delivered = [0]
    retry_counts: Dict[int, int] = {}
    workers: Dict[Any, _Worker] = {}  # conn -> worker
    respawn_at: List[float] = []  # scheduled respawn times (monotonic)
    respawns_done = 0
    consecutive_failures = 0
    next_wid = [0]

    def spawn() -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, fn, chaos), daemon=True
        )
        proc.start()
        child_conn.close()  # our copy; EOF must reach us when the child dies
        workers[parent_conn] = _Worker(proc, parent_conn, next_wid[0])
        next_wid[0] += 1

    def dispatch(worker: _Worker) -> None:
        if not pending:
            return
        chunk = [pending.popleft() for _ in range(min(chunk_size, len(pending)))]
        worker.inflight = list(chunk)
        if policy.trial_timeout is not None:
            worker.deadline = time.monotonic() + policy.trial_timeout * len(chunk)
        try:
            worker.conn.send(chunk)
        except (BrokenPipeError, OSError):
            # Died between chunks: no trial is to blame — requeue wholesale.
            worker.inflight = []
            pending.extendleft(reversed(chunk))
            worker_failed(worker, "crash")

    def reap(worker: _Worker, kill: bool) -> None:
        workers.pop(worker.conn, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)

    def drain_and_collect() -> List[Tuple[int, Any]]:
        """Deliver already-acked results, then gather every undelivered
        item (pending + in-flight) exactly once."""
        remaining: List[Tuple[int, Any]] = list(pending)
        pending.clear()
        for worker in list(workers.values()):
            try:
                while worker.conn.poll():
                    message = worker.conn.recv()
                    if message[0] == "ok":
                        _ack(worker, message)
            except (EOFError, OSError):
                pass
            remaining.extend(worker.inflight)
            worker.inflight = []
            reap(worker, kill=True)
        remaining.sort(key=lambda item: item[0])
        return remaining

    def _ack(worker: _Worker, message) -> None:
        nonlocal consecutive_failures
        _kind, index, result, seconds = message
        for k, (i, _payload) in enumerate(worker.inflight):
            if i == index:
                del worker.inflight[k]
                break
        consecutive_failures = 0
        deliver(index, result, seconds, worker.wid)
        delivered[0] += 1

    def worker_failed(worker: _Worker, reason: str) -> None:
        nonlocal consecutive_failures, respawns_done
        unacked = list(worker.inflight)
        worker.inflight = []
        reap(worker, kill=True)
        _bump(stats, "worker_deaths")
        if reason == "hang":
            _bump(stats, "hangs")
        if unacked:
            culprit_index, culprit_payload = unacked[0]
            survivors = unacked[1:]
            attempts = retry_counts.get(culprit_index, 0) + 1
            retry_counts[culprit_index] = attempts
            if attempts > policy.max_retries:
                _bump(stats, "quarantined")
                deliver(
                    culprit_index,
                    TrialFailure(
                        reason=reason,
                        attempts=attempts,
                        workers_lost=attempts,
                        detail=(
                            f"trial killed {attempts} workers "
                            f"(max_retries={policy.max_retries})"
                        ),
                    ),
                    0.0,
                    worker.wid,
                )
                delivered[0] += 1
            else:
                _bump(stats, "retries")
                pending.appendleft((culprit_index, culprit_payload))
            _bump(stats, "requeued", len(survivors))
            pending.extend(survivors)
        if policy.on_worker_failure == "abort":
            drain_and_collect()
            raise WorkerFailureError(f"worker {worker.proc.pid} failed ({reason})")
        if policy.on_worker_failure == "serial":
            raise PoolCollapse(drain_and_collect(), f"worker failed ({reason})")
        consecutive_failures += 1
        still_needed = delivered[0] < total
        if still_needed and respawns_done < policy.max_respawns:
            delay = backoff_delay(
                consecutive_failures, policy.backoff_base, policy.backoff_cap
            )
            _bump(stats, "backoff_seconds", delay)
            respawn_at.append(time.monotonic() + delay)
            respawns_done += 1

    n_workers = max(1, min(n_jobs, (total + chunk_size - 1) // chunk_size))
    try:
        for _ in range(n_workers):
            spawn()
        for worker in list(workers.values()):
            dispatch(worker)

        while delivered[0] < total:
            now = time.monotonic()
            # Respawns that have cleared their backoff.
            due = [t for t in respawn_at if t <= now]
            for t in due:
                respawn_at.remove(t)
                spawn()
                _bump(stats, "respawns")
            # Hand work to any idle worker (post-death requeues).
            for worker in list(workers.values()):
                if not worker.inflight and pending:
                    dispatch(worker)

            if not workers:
                if respawn_at:
                    time.sleep(max(0.0, min(respawn_at) - time.monotonic()))
                    continue
                raise PoolCollapse(
                    drain_and_collect(),
                    f"pool collapsed (respawn budget {policy.max_respawns} spent)",
                )

            deadlines = [w.deadline for w in workers.values() if w.deadline]
            wakeups = deadlines + respawn_at
            timeout = max(0.0, min(wakeups) - now) + 0.01 if wakeups else None
            ready = connection.wait(list(workers), timeout)

            for conn in ready:
                worker = workers.get(conn)
                if worker is None:
                    continue
                try:
                    while True:
                        message = conn.recv()
                        kind = message[0]
                        if kind == "ok":
                            _ack(worker, message)
                        elif kind == "done":
                            # inflight empties only through in-order acks; a
                            # "done" arriving while trials are unacked belongs
                            # to an earlier chunk (the idle loop can dispatch
                            # ahead of it) and must not clear them.
                            if not worker.inflight:
                                worker.deadline = None
                                dispatch(worker)
                        elif kind == "err":
                            raise WorkerFailureError(
                                f"trial {message[1]} raised in worker:\n{message[2]}"
                            )
                        if not conn.poll():
                            break
                except (EOFError, OSError):
                    worker_failed(worker, "crash")

            # Hung workers: past the chunk deadline with work still unacked.
            if policy.trial_timeout is not None:
                now = time.monotonic()
                for worker in list(workers.values()):
                    if (
                        worker.inflight
                        and worker.deadline is not None
                        and now > worker.deadline
                    ):
                        worker_failed(worker, "hang")

        for worker in list(workers.values()):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            reap(worker, kill=False)
    finally:
        for worker in list(workers.values()):
            reap(worker, kill=True)
