"""Statistical fault injection campaigns (paper §4.1 and §5.4).

A :class:`Campaign` wraps one interpreter (one program + input) and drives
many single-fault runs:

1. a *golden* (fault-free) profiled run establishes per-instruction dynamic
   execution counts, the cycle baseline, and the reference outputs;
2. each trial samples a fault site uniformly over the *dynamic* stream of
   injectable instruction executions (weighted by execution count, as FlipIt
   does when injecting into random instruction instances), plus a uniform
   random bit of the result;
3. the run's outcome is classified per §5.5 using the interpreter status and
   the workload's verification routine.

Determinism: a campaign with the same seed replays identically — for any
``n_jobs``, because the trial list is pre-sampled serially before execution
(see :mod:`repro.faults.parallel`).
"""

from __future__ import annotations

import bisect
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..interp.interpreter import Interpreter, RunResult
from ..ir.instructions import CallInst, Instruction
from ..recover.runtime import RecoveryPolicy, RecoveryTelemetry
from ..recover.warm import WarmStart
from .model import FaultSite, injectable_instructions, result_bits
from .models import get_fault_model
from .outcomes import Outcome, OutcomeCounts


class OutputVerifier:
    """Protocol for workload verification routines (paper Table 2).

    ``capture`` snapshots whatever the routine needs from a golden run;
    ``check`` decides whether a completed faulty run's output is acceptable.
    The default implementation compares the module's ``output`` globals
    exactly — workloads override with tolerance/energy/sortedness checks.
    """

    def capture(self, interp: Interpreter):
        return {
            g.name: interp.read_global(g.name) for g in interp.module.output_globals()
        }

    def check(self, interp: Interpreter, golden) -> bool:
        for name, expected in golden.items():
            if interp.read_global(name) != expected:
                return False
        return True


class TrialRecord:
    """One fault-injection run.

    ``failure`` is normally ``None``; it carries a
    :class:`~repro.faults.supervisor.TrialFailure` when the outcome is
    ``TRIAL_FAILURE`` — the harness, not the program, failed the trial.

    ``recovery`` is a :class:`~repro.recover.RecoveryTelemetry` when the
    trial executed under the rollback runtime, else ``None``.

    ``warm`` is transient execution metadata from warm-start campaigns —
    a ``(rung_index, resynced, prefix_cycles_saved)`` triple, or ``None``
    for cold trials.  It describes *how* the trial ran, not what happened,
    so it is deliberately excluded from ``trial_entry`` (the one serialised
    form of a trial, see :mod:`repro.faults.parallel`): warm and cold
    campaigns produce byte-identical records on disk.
    """

    __slots__ = (
        "site", "outcome", "status", "cycles", "failure", "recovery", "warm",
    )

    def __init__(
        self,
        site: FaultSite,
        outcome: Outcome,
        status: str,
        cycles: int,
        failure=None,
        recovery: Optional[RecoveryTelemetry] = None,
        warm: Optional[Tuple[int, bool, int]] = None,
    ):
        self.site = site
        self.outcome = outcome
        self.status = status
        self.cycles = cycles
        self.failure = failure
        self.recovery = recovery
        self.warm = warm

    @property
    def instruction(self):
        return self.site.instruction

    def __repr__(self) -> str:
        return f"<TrialRecord {self.outcome.value} at {self.site!r}>"


def call_cycle(
    interp: Interpreter, entries: Sequence[Sequence[int]], inst: Instruction,
    fire: int,
) -> int:
    """The golden cycle at which the call instance holding a tripping
    run's flip is made: ``Interpreter.run``'s ``call_at`` for the flip of
    ``inst`` at golden cycle ``fire``, from the golden run's block
    ``entries`` (``RunResult.entries``).

    Before its flip a tripping run is the golden run.  The flip block
    charges at least one cycle and ends at ``fire``, so the call holding
    it starts at or before ``fire - 1`` and every later call of the
    function starts at or after ``fire``: it is the last call that starts
    by ``fire - 1``, whose entry block was entered, charge included, by
    ``fire - 1`` plus that charge.  Region code inlines every other call
    to the function when it is a leaf; a leaf calls no defined function,
    so its calls never nest.  Only a call that charges nothing at all can
    share its start with the next one; making it real too is harmless."""
    cf = interp.cfuncs[interp.cm.record_for(inst).cfi]
    cost = cf.costs[0]
    entered = entries[cf.blocks[0].gid]
    return entered[bisect.bisect_right(entered, fire - 1 + cost) - 1] - cost


class CampaignResult:
    """All trials of one campaign plus aggregate counts."""

    def __init__(
        self,
        records: List[TrialRecord],
        counts: OutcomeCounts,
        golden_cycles: int,
        seed: int,
    ):
        self.records = records
        self.counts = counts
        self.golden_cycles = golden_cycles
        self.seed = seed
        #: CampaignStats when run through the parallel engine, else None
        self.stats = None

    def records_with_outcome(self, outcome: Outcome) -> List[TrialRecord]:
        return [r for r in self.records if r.outcome is outcome]

    def __len__(self) -> int:
        return len(self.records)


class Campaign:
    """Statistical fault injection against one interpreter instance."""

    #: default ladder density: auto stride targets about this many rungs.
    #: Dense ladders pay off twice — shorter restored prefixes *and* more
    #: rendezvous points for golden resync — and a rung is only a list of
    #: cell references, so capture stays cheap well past a hundred rungs.
    DEFAULT_LADDER_RUNGS = 128

    def __init__(
        self,
        interp: Interpreter,
        verifier: Optional[OutputVerifier] = None,
        entry: str = "main",
        budget_factor: float = 20.0,
        recovery: Optional[RecoveryPolicy] = None,
        warm_start: bool = False,
        snapshot_stride: Optional[int] = None,
        fault_model=None,
    ):
        self.interp = interp
        self.verifier = verifier or OutputVerifier()
        self.entry = entry
        self.budget_factor = budget_factor
        #: the pluggable corruption model (None = transient single-bit flip,
        #: byte-identical to the historical behavior). Accepts a FaultModel
        #: instance or a spec string like ``"transient-multibit:k=3"``.
        self.fault_model = get_fault_model(fault_model)
        #: RecoveryPolicy arming rollback re-execution for every trial (and
        #: the golden run, so snapshot cost lands in the cycle baseline);
        #: None keeps the historical fail-stop behavior byte-identical.
        self.recovery = recovery
        #: execute trials from golden-run ladder rungs (prefix memoization);
        #: outcome records are bit-identical to cold-start at any n_jobs.
        self.warm_start = warm_start
        #: cycles between ladder rungs
        #: (None = golden_cycles / DEFAULT_LADDER_RUNGS)
        self.snapshot_stride = snapshot_stride
        self._golden_cycles: Optional[int] = None
        self._golden_capture = None
        self._ladder = None
        self._sites: List = []  # (instruction, dynamic_count)
        self._ranks: List[Optional[int]] = []  # each entry's MPI rank
        self._cumulative: List[int] = []
        self._total_weight = 0
        #: per block gid, the golden run's post-charge cycle count of each
        #: entry (RunResult.entries); None when no trial trips
        self._entries: Optional[List] = None
        #: id(instruction) -> whether its trials trip (see _fire_cycle)
        self._trips: Dict[int, bool] = {}
        self._recursive: Optional[Set[str]] = None  # functions on a call cycle

    # -- golden run --------------------------------------------------------------

    def prepare(self) -> None:
        """Run the golden profiled execution and index the fault space."""
        if self._golden_cycles is not None:
            return
        result = self.interp.run(self.entry, profile=True, recovery=self.recovery)
        if result.status != "ok":
            raise RuntimeError(
                f"golden run failed ({result.status}): {result.error}"
            )
        self._golden_cycles = result.cycles
        self._golden_capture = self.verifier.capture(self.interp)
        if self.recovery is None and not self.fault_model.multi_shot:
            self._entries = result.entries
        self._index([(None, result.profile)])

    def _index(self, profiles: Iterable[Tuple[Optional[int], Sequence[int]]]) -> None:
        """Index the dynamic fault population from golden block profiles,
        one ``(rank, profile)`` per rank (rank None outside MPI): one entry
        per rank and executed injectable instruction."""
        cm = self.interp.cm
        eligible = injectable_instructions(self.interp.module)
        total = 0
        for rank, profile in profiles:
            for inst in eligible:
                gid = cm.block_gids.get(id(inst.parent))
                if gid is None:
                    continue
                count = profile[gid]
                if count <= 0:
                    continue
                self._sites.append((inst, count))
                self._ranks.append(rank)
                total += count
                self._cumulative.append(total)
        if not self._sites:
            raise RuntimeError("program executed no injectable instructions")
        self._total_weight = total

    @property
    def golden_cycles(self) -> int:
        self.prepare()
        assert self._golden_cycles is not None
        return self._golden_cycles

    @property
    def golden_capture(self):
        self.prepare()
        return self._golden_capture

    @property
    def total_dynamic_injectable(self) -> int:
        """Size of the dynamic fault population (for margin-of-error math)."""
        self.prepare()
        return self._total_weight

    @property
    def cycle_budget(self) -> int:
        return int(self.budget_factor * self.golden_cycles) + 10_000

    # -- warm-start ladder --------------------------------------------------------

    @property
    def effective_stride(self) -> int:
        """The rung spacing actually used (resolves the auto default)."""
        if self.snapshot_stride is not None:
            return max(int(self.snapshot_stride), 1)
        return max(self.golden_cycles // self.DEFAULT_LADDER_RUNGS, 1)

    def ensure_ladder(self):
        """Capture (once) the golden snapshot ladder for warm-start trials.

        Called by the parallel engine in the parent before forking, so
        every worker inherits the same rungs copy-on-write.
        """
        if self._ladder is None:
            self.prepare()
            ladder = self.interp.capture_ladder(
                self.entry,
                stride=self.effective_stride,
                recovery=self.recovery,
            )
            if ladder.golden_cycles != self._golden_cycles:
                raise RuntimeError(
                    f"ladder capture diverged from the golden run "
                    f"({ladder.golden_cycles} vs {self._golden_cycles} cycles)"
                )
            self._ladder = ladder
        return self._ladder

    # -- sampling -------------------------------------------------------------------

    def sample_site(self, rng: random.Random) -> FaultSite:
        """One fault site, uniform over dynamic injectable executions."""
        self.prepare()
        pick = rng.randrange(self._total_weight)
        index = bisect.bisect_right(self._cumulative, pick)
        inst, count = self._sites[index]
        occurrence = rng.randint(1, count)
        bit = rng.randrange(result_bits(inst))
        return FaultSite(inst, occurrence, bit, self._ranks[index])

    def population_indexes(self, sites: Sequence[FaultSite]) -> List[int]:
        """Each site's index into the dynamic fault population ``_sites``
        (the ``site_index`` of its checkpoint entry), keyed on its rank
        and instruction."""
        index_of = {
            (rank, id(inst)): k
            for k, (rank, (inst, _count)) in enumerate(zip(self._ranks, self._sites))
        }
        return [index_of[site.rank, id(site.instruction)] for site in sites]

    def fingerprint(self, n_trials: int, seed: int = 0) -> str:
        """Stable identity of this campaign's trial plan — the checkpoint
        resume key and the service job id (see
        :func:`repro.faults.parallel.campaign_fingerprint`)."""
        from .parallel import campaign_fingerprint

        return campaign_fingerprint(self, n_trials, seed)

    def sample_trials(self, n_trials: int, seed: int = 0) -> List[FaultSite]:
        """The full trial plan, pre-sampled serially from the seed.

        This is the determinism anchor of the parallel engine: sampling
        consumes the RNG exactly as the historical sample-then-run loop did,
        so the planned sites are bit-identical for every worker count.
        """
        self.prepare()
        rng = random.Random(seed)
        model = self.fault_model
        return [model.sample_site(self, rng) for _ in range(n_trials)]

    # -- execution ---------------------------------------------------------------------

    def _fire_cycle(self, site: FaultSite) -> Optional[int]:
        """The golden cycle at which ``site``'s trial trips, or None when
        it counts the instruction's executions instead.

        A trial trips (see ``Interpreter.run``'s ``fire``) when the
        campaign kept the golden run's block entries, i.e. for single-shot
        models without recovery (``MpiCampaign`` keeps none), unless the
        site is *reentrant* — a call to a defined function sits at or
        before it in its block and its function is on a call-graph cycle,
        so the block's entries and the site's executions may come in
        different orders — or its block charges no cycle, so no charge
        tells its top from the block's before it."""
        entries = self._entries
        if entries is None:
            return None
        inst = site.instruction
        record = self.interp.cm.record_for(inst)
        trips = self._trips.get(id(inst))
        if trips is None:
            if self._recursive is None:
                graph = CallGraph(self.interp.module)
                self._recursive = {
                    fn.name for fn in self.interp.module.defined_functions()
                    if graph.is_recursive(fn)
                }
            block = inst.parent.instructions
            reentrant = inst.function.name in self._recursive and any(
                isinstance(i, CallInst) and not i.callee.is_declaration
                for i in block[: block.index(inst) + 1]
            )
            cost = self.interp.cfuncs[record.cfi].costs[record.block_index]
            trips = self._trips[id(inst)] = cost > 0 and not reentrant
        if not trips:
            return None
        return entries[record.block_gid][site.occurrence - 1]

    def _call_at(self, site: FaultSite, fire: Optional[int]) -> Optional[int]:
        """The golden cycle at which the call instance holding a tripping
        trial's flip is made (see :func:`call_cycle`), or None when the
        trial counts (``fire`` is None)."""
        if fire is None:
            return None
        return call_cycle(self.interp, self._entries, site.instruction, fire)

    def _warm_plan(self, site: FaultSite, fire: Optional[int]) -> WarmStart:
        """How ``site``'s warm trial starts: the rung it restores and
        whether it resyncs (``fire`` from :meth:`_fire_cycle`)."""
        ladder = self.ensure_ladder()
        plan_at = site
        if fire is None:
            # Multi-shot models may fire before the planned occurrence:
            # plan the rung against the *first* possible firing so the
            # restored prefix never skips a corruption.
            first = self.fault_model.first_occurrence(site)
            if first != site.occurrence:
                plan_at = FaultSite(site.instruction, first, site.bit)
        snap, inj_seen = ladder.plan_site(self.interp.cm, plan_at, fire)
        # Only tripping trials resync.  Recovery trials must replay their
        # rollback telemetry in full to stay bit-identical, multi-shot
        # faults keep corrupting after the first firing (so their tails
        # never rendezvous with the golden run), and the resync dispatch
        # loop steps its events on the plain per-block table, which does
        # not count.
        return WarmStart(ladder, snap, inj_seen=inj_seen, resync=fire is not None)

    def run_site(self, site: FaultSite) -> TrialRecord:
        """Execute one injection run and classify its outcome."""
        self.prepare()
        fire = self._fire_cycle(site)
        warm = self._warm_plan(site, fire) if self.warm_start else None
        result = self.interp.run(
            self.entry,
            injection=self.fault_model.injection_for(site),
            cycle_budget=self.cycle_budget,
            recovery=self.recovery,
            warm=warm,
            fire=fire,
            call_at=self._call_at(site, fire),
        )
        outcome = self.classify(result)
        warm_info = None
        if warm is not None:
            warm_info = (
                result.warm_index,
                result.resynced,
                warm.snapshot.cycles if warm.snapshot is not None else 0,
            )
        return TrialRecord(
            site,
            outcome,
            result.status,
            result.cycles,
            recovery=result.recovery,
            warm=warm_info,
        )

    def classify(self, result: RunResult) -> Outcome:
        """The outcome of a trial's run: a ``RunResult``, or an MPI
        ``JobResult``, which answers the same ``status``, ``resynced`` and
        ``recovery``."""
        if result.status in ("trap", "abort"):
            return Outcome.CRASH
        if result.status == "hang":
            return Outcome.HANG
        if result.status == "detected":
            return Outcome.DETECTED
        if result.resynced:
            # The run's state re-converged bit-exactly with the golden run
            # after the flip fired, so its outputs equal the golden outputs
            # — any verifier accepts its own golden capture.
            return Outcome.MASKED
        if self.verifier.check(self.interp, self._golden_capture):
            # A verified-correct completion that needed at least one
            # rollback is a detection the recovery runtime turned into a
            # corrected run; without rollbacks it is ordinary masking.
            if result.recovery is not None and result.recovery.rollbacks:
                return Outcome.CORRECTED
            return Outcome.MASKED
        return Outcome.SOC

    def run(
        self,
        n_trials: int,
        seed: int = 0,
        n_jobs: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        progress: bool = False,
        on_trial: Optional[Callable] = None,
        supervision=None,
        strict_resume: bool = False,
        chaos=None,
        obs=None,
    ) -> CampaignResult:
        """The whole campaign: ``n_trials`` independent single-fault runs.

        ``n_jobs`` shards trials over persistent worker processes (default:
        ``IPAS_JOBS`` env, else in-process); results are bit-identical for
        every worker count, including under worker failure — dead or hung
        workers are requeued and respawned per ``supervision`` (a
        ``SupervisorPolicy``; default: ``SupervisorPolicy.from_env()``).
        ``checkpoint_path``
        flushes completed trials to a resumable, CRC-protected JSONL file;
        ``progress`` prints live throughput to stderr;
        ``on_trial(index, record)`` fires per completed trial.
        ``obs`` (a :class:`repro.obs.Observation`) arms trace emission and
        metrics export; ``None`` keeps the observability layer entirely
        out of the execution path.
        """
        from .parallel import run_campaign

        return run_campaign(
            self,
            n_trials,
            seed=seed,
            n_jobs=n_jobs,
            checkpoint_path=checkpoint_path,
            progress=progress,
            on_trial=on_trial,
            supervision=supervision,
            strict_resume=strict_resume,
            chaos=chaos,
            obs=obs,
        )
