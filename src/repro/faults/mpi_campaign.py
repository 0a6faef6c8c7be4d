"""Statistical fault injection into parallel (simulated MPI) jobs.

The paper's campaigns inject into "random instances of an instruction, bits
within a byte, and MPI ranks" (§4.1, FlipIt) but evaluate coverage on
single-process runs (§6); this module closes that loop as an extension:
faults land in a *random rank* of a multi-rank job, under any registered
fault model, and the outcome taxonomy is applied at **job level** — one
rank's detection or crash aborts the whole job (§4.4.1), so symptoms and
detections propagate.

Site sampling is exact per rank: a profiled job run records every rank's
block-execution counts, so (rank, instruction, occurrence, bit) is sampled
uniformly over the union of all ranks' dynamic injectable executions.

:class:`MpiCampaign` is a :class:`~repro.faults.campaign.Campaign` whose
fault population lists each instruction once per rank and whose trials run
the whole job, so ``run`` is the one campaign engine
(:func:`repro.faults.parallel.run_campaign`): worker pools, supervision,
checkpoint/resume, progress and observability all apply unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..parallel.mpi import MpiJob
from ..recover.runtime import RecoveryPolicy
from .campaign import Campaign, OutputVerifier, TrialRecord
from .model import FaultSite


class MpiCampaign(Campaign):
    """Fault injection against one MpiJob (module + input + rank count).

    Trials yield plain :class:`TrialRecord` objects whose ``site`` names
    its ``rank``; ``status`` is the job status and ``cycles`` the job
    cycles (the maximum over ranks).  ``recovery`` arms per-rank rollback
    re-execution; snapshots are pinned at every collective, so rollback
    never replays an exchange (see :meth:`repro.parallel.mpi.RankMpi._exchange`).
    """

    def __init__(
        self,
        job: MpiJob,
        verifier: Optional[OutputVerifier] = None,
        entry: str = "main",
        budget_factor: float = 10.0,
        recovery: Optional[RecoveryPolicy] = None,
        warm_start: bool = False,
        fault_model=None,
    ):
        if warm_start:
            # A multi-rank job has no consistent cross-rank snapshot: rank
            # threads rendezvous inside collectives, so a cycle-stride ladder
            # captured on one rank is meaningless to the others.  Refuse
            # rather than silently running the trials cold.
            raise NotImplementedError(
                "warm-start snapshot ladders are single-process only; "
                "MpiCampaign cannot run warm_start=True"
            )
        # Rank 0's interpreter holds the outputs the verifier checks (all
        # ranks agree in the zero-and-allreduce workload pattern; corrupted
        # ranks diverge and the divergence lands in the assembled outputs).
        super().__init__(
            job.interpreters[0],
            verifier=verifier,
            entry=entry,
            budget_factor=budget_factor,
            recovery=recovery,
            fault_model=fault_model,
        )
        self.job = job

    def prepare(self) -> None:
        """Profile a golden job run and index every rank's fault space."""
        if self._golden_cycles is not None:
            return
        result = self.job.run(self.entry, profile=True, recovery=self.recovery)
        if result.status != "ok":
            raise RuntimeError(f"golden parallel run failed: {result.status}")
        self._index(enumerate(r.profile for r in result.rank_results))
        self._golden_capture = self.verifier.capture(self.interp)
        self._golden_cycles = result.job_cycles

    def run_site(self, site: FaultSite) -> TrialRecord:
        """Run the whole job with ``site`` armed in its rank; classify it."""
        self.prepare()
        result = self.job.run(
            self.entry,
            injection=(self.fault_model.injection_for(site), site.rank),
            cycle_budget=self.cycle_budget,
            recovery=self.recovery,
        )
        return TrialRecord(
            site,
            self.classify(result),
            result.status,
            result.job_cycles,
            recovery=result.recovery,
        )
