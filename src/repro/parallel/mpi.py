"""Simulated MPI: SPMD ranks on threads with real collective semantics.

An :class:`MpiJob` runs one interpreter per rank (same compiled module,
private memory per rank), each on its own thread.  The ``mpi_*`` intrinsics
of a rank's program reach its :class:`RankMpi` context, which synchronises
through an abortable generation-counted rendezvous.

Failure semantics follow the paper (§4.4.1): when one rank dies — trap,
detected fault, hang — the rest of the job aborts, which surfaces as an
observable system-level symptom.  A rank that *finishes* while others still
wait in a collective also aborts the job (a real MPI run would deadlock and
be killed).

Timing: each rank accumulates its own deterministic cycle count; the job's
time is the maximum over ranks, which is how strong-scaling slowdown
(paper Fig. 8) is measured.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..interp.compiler import CompiledModule
from ..interp.errors import MpiAbort
from ..interp.interpreter import Interpreter, RunResult
from ..ir.module import Module
from ..recover.runtime import RecoveryTelemetry


class _Rendezvous:
    """One reusable, abortable all-ranks synchronisation point with data."""

    def __init__(self, n_ranks: int, timeout: float):
        self.n = n_ranks
        self.timeout = timeout
        self._cond = threading.Condition()
        self._generation = 0
        self._arrived = 0
        self._slots: List = [None] * n_ranks
        self._result = None
        self._aborted = False
        self._finished_ranks = 0

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def rank_finished(self) -> None:
        """A rank's main() returned; it will never arrive at a collective."""
        with self._cond:
            self._finished_ranks += 1
            self._cond.notify_all()

    def exchange(self, rank: int, value, reduce: Callable[[List], object]):
        """Deposit ``value``, wait for all ranks, return ``reduce(slots)``.

        The reduction runs exactly once per generation (by the last
        arriver), over slots in rank order — deterministic regardless of
        thread scheduling.
        """
        with self._cond:
            if self._aborted:
                raise MpiAbort("job aborted")
            generation = self._generation
            self._slots[rank] = value
            self._arrived += 1
            if self._arrived == self.n:
                self._result = reduce(list(self._slots))
                self._arrived = 0
                self._slots = [None] * self.n
                self._generation += 1
                self._cond.notify_all()
                return self._result
            deadline = self.timeout
            while self._generation == generation:
                if self._aborted:
                    raise MpiAbort("job aborted")
                if self._arrived + self._finished_ranks >= self.n:
                    # Someone finished instead of arriving: deadlock.
                    self._aborted = True
                    self._cond.notify_all()
                    raise MpiAbort("collective deadlock: a rank exited early")
                if not self._cond.wait(timeout=0.05):
                    deadline -= 0.05
                    if deadline <= 0:
                        self._aborted = True
                        self._cond.notify_all()
                        raise MpiAbort("collective timed out")
            return self._result


class RankMpi:
    """The per-rank MPI context handed to an Interpreter."""

    def __init__(self, job: "MpiJob", rank: int):
        self.job = job
        self.rank = rank
        self.size = job.n_ranks

    def _exchange(self, interp: Interpreter, value, reduce):
        # Collectives are irreversible: data left this rank.  Pin every
        # live recovery snapshot so a later rollback can never replay the
        # exchange (it would desynchronise the rendezvous generations).
        interp.recovery_pin()
        return self.job.rendezvous.exchange(self.rank, value, reduce)

    # -- scalar collectives ------------------------------------------------------

    def barrier(self, interp: Interpreter) -> None:
        self._exchange(interp, None, lambda slots: None)

    def allreduce_sum(self, interp: Interpreter, value):
        return self._exchange(interp, value, lambda s: sum(s))

    def allreduce_min(self, interp: Interpreter, value):
        return self._exchange(interp, value, lambda s: min(s))

    def allreduce_max(self, interp: Interpreter, value):
        return self._exchange(interp, value, lambda s: max(s))

    def bcast(self, interp: Interpreter, value, root: int):
        if not 0 <= root < self.size:
            interp.trap_mem(root)  # corrupt root rank id -> observable fault
        return self._exchange(interp, value, lambda s: s[root])

    # -- array collectives ----------------------------------------------------------

    def allreduce_array(self, interp: Interpreter, addr: int, count: int) -> None:
        if count < 0 or count > (1 << 24):
            interp.trap_mem(count)
        local = [interp.checked_load(addr + i) for i in range(count)]

        def reduce(slots: List) -> List:
            total = list(slots[0])
            for other in slots[1:]:
                for i in range(len(total)):
                    total[i] += other[i]
            return total

        result = self._exchange(interp, local, reduce)
        for i in range(count):
            interp.checked_store(addr + i, result[i])

    def sendrecv(
        self, interp: Interpreter, send_addr: int, recv_addr: int, count: int, peer: int
    ) -> None:
        if not 0 <= peer < self.size:
            interp.trap_mem(peer)
        if count < 0 or count > (1 << 24):
            interp.trap_mem(count)
        payload = [interp.checked_load(send_addr + i) for i in range(count)]

        def route(slots: List) -> List:
            # slots[r] = (peer, payload) sent by rank r; result indexed by
            # receiver: receiver r gets the payload whose sender addressed r.
            inbox: List = [None] * self.size
            for sender, (to, data) in enumerate(slots):
                inbox[to] = data
            return inbox

        inbox = self._exchange(interp, (peer, payload), route)
        received = inbox[self.rank]
        if received is None:
            raise MpiAbort(f"rank {self.rank}: no matching send")
        for i in range(min(count, len(received))):
            interp.checked_store(recv_addr + i, received[i])


class JobResult:
    """Aggregated outcome of one SPMD run.

    It answers what a campaign classifies a single-process ``RunResult``
    by: ``status``, ``resynced`` (a job never resyncs) and ``recovery``
    (the ranks' telemetry summed, None when no rank ran under recovery)."""

    resynced = False

    def __init__(self, rank_results: List[Optional[RunResult]]):
        self.rank_results = rank_results
        self.statuses = [r.status if r else "abort" for r in rank_results]
        self.recovery = RecoveryTelemetry.total(
            r.recovery for r in rank_results if r is not None
        )

    @property
    def status(self) -> str:
        """Job-level status with the paper's precedence: a duplication
        detection anywhere dominates, then crash symptoms, then hangs."""
        if any(s == "detected" for s in self.statuses):
            return "detected"
        if any(s == "trap" for s in self.statuses):
            return "trap"
        if any(s == "hang" for s in self.statuses):
            return "hang"
        if any(s == "abort" for s in self.statuses):
            return "abort"
        return "ok"

    @property
    def job_cycles(self) -> int:
        """Critical-path time: the slowest rank."""
        return max((r.cycles for r in self.rank_results if r is not None), default=0)

    def __repr__(self) -> str:
        return f"<JobResult {self.status} ranks={self.statuses}>"


class MpiJob:
    """Runs a module SPMD across ``n_ranks`` simulated MPI ranks."""

    def __init__(
        self,
        module_or_compiled: Union[Module, CompiledModule],
        n_ranks: int,
        overrides: Optional[Dict[str, object]] = None,
        collective_timeout: float = 30.0,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if isinstance(module_or_compiled, CompiledModule):
            self.cm = module_or_compiled
        else:
            self.cm = CompiledModule(module_or_compiled)
        self.n_ranks = n_ranks
        self.overrides = dict(overrides or {})
        self.collective_timeout = collective_timeout
        self.rendezvous = _Rendezvous(n_ranks, collective_timeout)
        self.interpreters: List[Interpreter] = []
        for rank in range(n_ranks):
            interp = Interpreter(self.cm, mpi=RankMpi(self, rank))
            for name, value in self.overrides.items():
                interp.set_global_override(name, value)
            self.interpreters.append(interp)

    def run(
        self,
        entry: str = "main",
        cycle_budget: Optional[int] = None,
        injection: Optional[Tuple[object, int]] = None,
        profile: bool = False,
        recovery=None,
    ) -> JobResult:
        """Run all ranks to completion.

        ``injection`` is an optional ``(spec, rank)`` pair, ``spec`` a
        :class:`repro.faults.models.InjectionSpec`: the fault is injected
        into exactly one rank, as FlipIt does when it picks a random MPI
        rank.  ``profile=True`` collects
        per-rank block-execution profiles (``JobResult.rank_results[r].profile``),
        which parallel fault campaigns use to enumerate each rank's dynamic
        fault population.  ``recovery`` (a
        :class:`~repro.recover.RecoveryPolicy`) arms per-rank rollback
        re-execution; snapshots are pinned at every collective, so rollback
        never crosses communication — detections past the last collective
        recover, earlier ones escalate to the fail-stop detected status.
        """
        # Fresh rendezvous per run (previous runs may have aborted it).
        self.rendezvous = _Rendezvous(self.n_ranks, self.collective_timeout)
        for interp in self.interpreters:
            interp.mpi.job = self  # type: ignore[attr-defined]
        results: List[Optional[RunResult]] = [None] * self.n_ranks

        def worker(rank: int) -> None:
            interp = self.interpreters[rank]
            inj = None
            if injection is not None and injection[1] == rank:
                inj = injection[0]
            result = interp.run(
                entry, injection=inj, cycle_budget=cycle_budget, profile=profile,
                recovery=recovery,
            )
            results[rank] = result
            if result.status == "ok":
                self.rendezvous.rank_finished()
            else:
                # A failing rank takes the whole job down (paper §4.4.1).
                self.rendezvous.abort()

        threads = [
            threading.Thread(target=worker, args=(rank,), daemon=True)
            for rank in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.collective_timeout * 4)
        return JobResult(results)

    def read_global(self, name: str, rank: int = 0):
        return self.interpreters[rank].read_global(name)
