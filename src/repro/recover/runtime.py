"""Recovery policy, snapshots, and the escalation ladder.

The mechanism is exception-based: when recovery is active, a fired
``ipas.check.*`` intrinsic raises :class:`RollbackSignal` instead of the
fail-stop :class:`~repro.interp.errors.DetectedByDuplication`.  The signal
unwinds to the innermost call frame holding a snapshot (the interpreter
keeps at most one live snapshot per recovery-aware frame, stacked
outermost-first, so the frame that catches the signal always owns the stack
top).  The frame then either *rolls back* — restores the snapshot and
resumes its block-dispatch loop at the snapshot's block — or *escalates*
outward when the ladder says the snapshot must not be restored:

``pinned``
    Irreversible communication (an MPI collective) happened after the
    snapshot was taken; re-executing would replay the exchange.
``tainted``
    The injected fault fired *before* the snapshot was captured, so the
    snapshot itself holds corrupted state; restoring it would silently
    convert a detection into an SOC.
``rollback-cap`` / ``cycle-budget`` / ``region-retries``
    Retry exhaustion: the total rollback cap, the cumulative re-executed
    cycle budget, or the per-region retry cap was reached.

Escalation past the outermost snapshot degrades to the paper's fail-stop
``DETECTED`` outcome.  Under the single-transient-fault model a rollback
also disarms the injector (the flip happened once; the re-execution must
not replay it), which is what makes corrected runs bit-identical to the
fault-free baseline.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple


class RollbackSignal(Exception):
    """A duplication check fired while recovery is active.

    Carries the same detection context as
    :class:`~repro.interp.errors.DetectedByDuplication` so escalation can
    reconstruct the fail-stop error without losing provenance.
    """

    def __init__(
        self,
        function: str = "?",
        block: str = "?",
        check_name: str = "ipas.check",
        instruction: str = "?",
    ):
        super().__init__(f"{check_name} fired at {function}:{block}")
        self.function = function
        self.block = block
        self.check_name = check_name
        self.instruction = instruction


class RecoveryPolicy:
    """Knobs of the recovery runtime (all caps are per run)."""

    __slots__ = (
        "max_rollbacks",
        "region_retries",
        "rollback_cycle_budget",
        "snapshot_period",
        "snapshot_cost",
    )

    def __init__(
        self,
        max_rollbacks: int = 8,
        region_retries: int = 2,
        rollback_cycle_budget: Optional[int] = None,
        snapshot_period: int = 0,
        snapshot_cost: int = 0,
    ):
        if max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if region_retries < 0:
            raise ValueError("region_retries must be >= 0")
        if snapshot_period < 0:
            raise ValueError("snapshot_period must be >= 0")
        #: total rollbacks allowed across the whole run
        self.max_rollbacks = max_rollbacks
        #: rollbacks allowed per snapshot site (function, block) pair
        self.region_retries = region_retries
        #: cap on cumulative re-executed cycles (None = bounded only by
        #: the run's hang budget, which monotonic cycles always enforce)
        self.rollback_cycle_budget = rollback_cycle_budget
        #: minimum cycles between snapshots (0 = snapshot every boundary)
        self.snapshot_period = snapshot_period
        #: cycles charged per snapshot (models checkpoint cost; 0 = free)
        self.snapshot_cost = snapshot_cost

    def signature(self) -> str:
        """Stable identity for campaign fingerprints: any knob that changes
        trial outcomes changes the signature."""
        return (
            f"rec1|{self.max_rollbacks}|{self.region_retries}"
            f"|{self.rollback_cycle_budget}|{self.snapshot_period}"
            f"|{self.snapshot_cost}"
        )

    def __repr__(self) -> str:
        return (
            f"<RecoveryPolicy max_rollbacks={self.max_rollbacks} "
            f"region_retries={self.region_retries} "
            f"period={self.snapshot_period}>"
        )


class RecoveryTelemetry:
    """Counters of one run's recovery activity (attached to RunResult)."""

    __slots__ = (
        "snapshots",
        "rollbacks",
        "reexec_cycles",
        "max_rollback_cycles",
        "escalations",
        "escalation_reason",
    )

    def __init__(
        self,
        snapshots: int = 0,
        rollbacks: int = 0,
        reexec_cycles: int = 0,
        max_rollback_cycles: int = 0,
        escalations: int = 0,
        escalation_reason: str = "",
    ):
        self.snapshots = snapshots
        self.rollbacks = rollbacks
        #: cycles discarded and re-executed across all rollbacks
        self.reexec_cycles = reexec_cycles
        #: largest single detection-to-snapshot distance, in cycles
        self.max_rollback_cycles = max_rollback_cycles
        self.escalations = escalations
        #: ladder rung of the *last* escalation ("" when none)
        self.escalation_reason = escalation_reason

    @classmethod
    def total(
        cls, telemetries: Iterable[Optional["RecoveryTelemetry"]]
    ) -> Optional["RecoveryTelemetry"]:
        """The sum of ``telemetries``, skipping ``None``: counters add,
        ``max_rollback_cycles`` is the largest and ``escalation_reason``
        the last one set.  ``None`` when every entry is ``None``."""
        total = None
        for telemetry in telemetries:
            if telemetry is None:
                continue
            if total is None:
                total = cls()
            total.snapshots += telemetry.snapshots
            total.rollbacks += telemetry.rollbacks
            total.reexec_cycles += telemetry.reexec_cycles
            total.escalations += telemetry.escalations
            if telemetry.max_rollback_cycles > total.max_rollback_cycles:
                total.max_rollback_cycles = telemetry.max_rollback_cycles
            if telemetry.escalation_reason:
                total.escalation_reason = telemetry.escalation_reason
        return total

    @property
    def mean_rollback_cycles(self) -> float:
        """Mean detection-to-snapshot distance per rollback."""
        return self.reexec_cycles / self.rollbacks if self.rollbacks else 0.0

    def as_dict(self) -> Dict:
        data: Dict = {
            "snapshots": self.snapshots,
            "rollbacks": self.rollbacks,
            "reexec_cycles": self.reexec_cycles,
            "max_rollback_cycles": self.max_rollback_cycles,
            "escalations": self.escalations,
        }
        if self.escalation_reason:
            data["escalation_reason"] = self.escalation_reason
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RecoveryTelemetry":
        return cls(
            snapshots=int(data.get("snapshots", 0)),
            rollbacks=int(data.get("rollbacks", 0)),
            reexec_cycles=int(data.get("reexec_cycles", 0)),
            max_rollback_cycles=int(data.get("max_rollback_cycles", 0)),
            escalations=int(data.get("escalations", 0)),
            escalation_reason=str(data.get("escalation_reason", "")),
        )

    def __repr__(self) -> str:
        return (
            f"<RecoveryTelemetry snapshots={self.snapshots} "
            f"rollbacks={self.rollbacks} reexec={self.reexec_cycles}"
            + (f" escalated={self.escalation_reason}" if self.escalation_reason else "")
            + ">"
        )


class Snapshot:
    """One region-boundary capture of the live interpreter state.

    Everything needed to re-enter the owning frame's dispatch loop at
    ``bi``: the live memory image (``cells[:sp]`` — globals plus the live
    stack; cells past ``sp`` are dead frame residue), the stack pointer,
    the frame's register file, the output log length, and the injector's
    occurrence counter.  Cell and frame elements are immutable scalars, so
    shallow copies are exact.  The cycle counter is *not* restored: cycles
    stay monotonic, so wasted work counts toward the hang budget.
    """

    __slots__ = (
        "cfi",
        "bi",
        "cells",
        "sp",
        "cycles",
        "frame",
        "out_len",
        "inj_seen",
        "tainted",
        "pinned",
    )

    def __init__(
        self,
        cfi: int,
        bi: int,
        cells: List,
        sp: int,
        cycles: int,
        frame: List,
        out_len: int,
        inj_seen: int,
        tainted: bool,
    ):
        self.cfi = cfi
        self.bi = bi
        self.cells = cells
        self.sp = sp
        self.cycles = cycles
        self.frame = frame
        self.out_len = out_len
        self.inj_seen = inj_seen
        #: the injected fault fired before this capture — restoring would
        #: resurrect corrupted state (silent SOC), so escalate instead
        self.tainted = tainted
        #: irreversible communication happened after this capture
        self.pinned = False

    def __repr__(self) -> str:
        flags = ("tainted" if self.tainted else "") + (" pinned" if self.pinned else "")
        return f"<Snapshot cfi={self.cfi} bi={self.bi} cycles={self.cycles}{flags}>"


class RecoveryState:
    """Per-run recovery bookkeeping: the snapshot stack and the ladder."""

    __slots__ = (
        "policy",
        "plan",
        "stack",
        "telemetry",
        "region_rollbacks",
        "last_snapshot_cycles",
    )

    def __init__(self, policy: RecoveryPolicy, plan: Dict[int, frozenset]):
        self.policy = policy
        #: cfi -> frozenset of local block indexes that are snapshot points
        self.plan = plan
        #: live snapshots, outermost frame first (top = most recent)
        self.stack: List[Snapshot] = []
        self.telemetry = RecoveryTelemetry()
        #: (cfi, bi) -> rollbacks already spent at that site
        self.region_rollbacks: Dict[Tuple[int, int], int] = {}
        self.last_snapshot_cycles: Optional[int] = None

    def should_snapshot(self, cycles: int) -> bool:
        period = self.policy.snapshot_period
        if period <= 0 or self.last_snapshot_cycles is None:
            return True
        return cycles - self.last_snapshot_cycles >= period

    def pin(self) -> None:
        """Invalidate rollback past this point (a collective executed)."""
        for snap in self.stack:
            snap.pinned = True

    def on_detection(self, snap: Snapshot, now: int) -> Optional[str]:
        """Decide the fate of a detection against ``snap``.

        Returns ``None`` when the rollback is approved (telemetry charged),
        else the escalation reason — the caller must discard the snapshot
        and escalate outward.
        """
        policy = self.policy
        telemetry = self.telemetry
        wasted = now - snap.cycles
        reason: Optional[str] = None
        if snap.pinned:
            reason = "pinned"
        elif snap.tainted:
            reason = "tainted"
        elif telemetry.rollbacks >= policy.max_rollbacks:
            reason = "rollback-cap"
        elif (
            policy.rollback_cycle_budget is not None
            and telemetry.reexec_cycles + wasted > policy.rollback_cycle_budget
        ):
            reason = "cycle-budget"
        else:
            site = (snap.cfi, snap.bi)
            spent = self.region_rollbacks.get(site, 0)
            if spent >= policy.region_retries:
                reason = "region-retries"
            else:
                self.region_rollbacks[site] = spent + 1
        if reason is not None:
            telemetry.escalations += 1
            telemetry.escalation_reason = reason
            return reason
        telemetry.rollbacks += 1
        telemetry.reexec_cycles += wasted
        if wasted > telemetry.max_rollback_cycles:
            telemetry.max_rollback_cycles = wasted
        return None


def summarize_telemetry(telemetries: Iterable[Optional[RecoveryTelemetry]]) -> Dict:
    """Aggregate per-trial telemetry into one campaign-level summary."""
    telemetries = [t for t in telemetries if t is not None]
    total = RecoveryTelemetry.total(telemetries) or RecoveryTelemetry()
    reasons = Counter(t.escalation_reason for t in telemetries if t.escalation_reason)
    total.escalation_reason = ""  # the summary counts every reason instead
    summary = total.as_dict()
    summary["trials"] = len(telemetries)
    summary["mean_rollback_cycles"] = total.mean_rollback_cycles
    if reasons:
        summary["escalation_reasons"] = dict(reasons)
    return summary
