"""Statistical fault injection into parallel (simulated MPI) jobs.

The paper's campaigns inject into "random instances of an instruction, bits
within a byte, and MPI ranks" (§4.1, FlipIt) but evaluate coverage on
single-process runs (§6); this module closes that loop as an extension:
single-bit faults land in a *random rank* of a multi-rank job, and the
outcome taxonomy is applied at **job level** — one rank's detection or
crash aborts the whole job (§4.4.1), so symptoms and detections propagate.

Site sampling is exact per rank: a profiled job run records every rank's
block-execution counts, so (rank, instruction, occurrence, bit) is sampled
uniformly over the union of all ranks' dynamic injectable executions.

:class:`MpiCampaign` is a :class:`~repro.faults.campaign.Campaign` whose
fault population is flattened over ranks and whose trials run the whole
job, so ``run`` is the one campaign engine
(:func:`repro.faults.parallel.run_campaign`): worker pools, supervision,
checkpoint/resume, progress and observability all apply unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..parallel.mpi import JobResult, MpiJob
from ..recover.runtime import RecoveryPolicy, RecoveryTelemetry
from .campaign import Campaign, OutputVerifier, TrialRecord
from .model import FaultSite, injectable_instructions
from .models import get_fault_model
from .outcomes import Outcome


def _aggregate_recovery(result: JobResult) -> Optional[RecoveryTelemetry]:
    """Sum per-rank recovery telemetry into one job-level record."""
    total: Optional[RecoveryTelemetry] = None
    for rank_result in result.rank_results:
        telemetry = getattr(rank_result, "recovery", None)
        if telemetry is None:
            continue
        if total is None:
            total = RecoveryTelemetry()
        total.snapshots += telemetry.snapshots
        total.rollbacks += telemetry.rollbacks
        total.reexec_cycles += telemetry.reexec_cycles
        total.escalations += telemetry.escalations
        if telemetry.max_rollback_cycles > total.max_rollback_cycles:
            total.max_rollback_cycles = telemetry.max_rollback_cycles
        if telemetry.escalation_reason:
            total.escalation_reason = telemetry.escalation_reason
    return total


class RankSite(FaultSite):
    """A fault site in one rank of a multi-rank job."""

    __slots__ = ("rank",)

    def __init__(self, instruction, occurrence: int, bit: int, rank: int):
        super().__init__(instruction, occurrence, bit)
        self.rank = rank

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]} rank={self.rank}>"


class MpiCampaign(Campaign):
    """Fault injection against one MpiJob (module + input + rank count).

    Trials yield plain :class:`TrialRecord` objects whose ``site`` is a
    :class:`RankSite`; ``status`` is the job status and ``cycles`` the job
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
        model = get_fault_model(fault_model)
        if model.name != "transient-1bit":
            # Non-default models rebuild each sampled site as a
            # PlannedFault, which would drop its rank; their planning needs
            # threading through the rank dimension first.  Refuse rather
            # than silently running the wrong corruption.
            raise NotImplementedError(
                f"MpiCampaign only supports the default transient-1bit "
                f"fault model, got {model.spec()!r}"
            )
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
            fault_model=model,
        )
        self.job = job
        #: the rank of each population entry in ``_sites``
        self._ranks: List[int] = []

    def prepare(self) -> None:
        """Profile a golden job run and flatten every rank's fault space."""
        if self._golden_cycles is not None:
            return
        result = self.job.run(self.entry, profile=True, recovery=self.recovery)
        if result.status != "ok":
            raise RuntimeError(f"golden parallel run failed: {result.status}")
        cm = self.job.cm
        eligible = injectable_instructions(cm.module)
        total = 0
        for rank, rank_result in enumerate(result.rank_results):
            assert rank_result is not None and rank_result.profile is not None
            profile = rank_result.profile
            for inst in eligible:
                gid = cm.block_gids.get(id(inst.parent))
                if gid is None:
                    continue
                count = profile[gid]
                if count > 0:
                    self._sites.append((inst, count))
                    self._ranks.append(rank)
                    total += count
                    self._cumulative.append(total)
        if not self._sites:
            raise RuntimeError("no injectable dynamic instructions in any rank")
        self._total_weight = total
        self._golden_capture = self.verifier.capture(self.interp)
        self._golden_cycles = result.job_cycles

    def _site_at(self, index: int, inst, occurrence: int, bit: int) -> RankSite:
        return RankSite(inst, occurrence, bit, self._ranks[index])

    def population_indexes(self, sites: Sequence[RankSite]) -> List[int]:
        index_of = {
            (rank, id(inst)): k
            for k, (rank, (inst, _count)) in enumerate(zip(self._ranks, self._sites))
        }
        return [index_of[site.rank, id(site.instruction)] for site in sites]

    def run_site(self, site: RankSite) -> TrialRecord:
        """Run the whole job with ``site`` armed in its rank; classify it."""
        self.prepare()
        result = self.job.run(
            self.entry,
            injection=(site.as_injection(), site.rank),
            cycle_budget=self.cycle_budget,
            recovery=self.recovery,
        )
        return TrialRecord(
            site,
            self.classify(result),
            result.status,
            result.job_cycles,
            recovery=_aggregate_recovery(result),
        )

    def classify(self, result: JobResult) -> Outcome:
        if result.status == "detected":
            return Outcome.DETECTED
        if result.status in ("trap", "abort"):
            return Outcome.CRASH
        if result.status == "hang":
            return Outcome.HANG
        if self.verifier.check(self.interp, self._golden_capture):
            recovery = _aggregate_recovery(result)
            if recovery is not None and recovery.rollbacks:
                return Outcome.CORRECTED
            return Outcome.MASKED
        return Outcome.SOC
