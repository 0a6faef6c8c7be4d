"""The IR interpreter (virtual machine).

Drives the block functions produced by :mod:`repro.interp.compiler`.  One
``Interpreter`` wraps one compiled module and is reused — ``run()`` resets
all mutable state, so statistical fault-injection campaigns pay module
compilation once and then execute thousands of runs at full speed.

Executions are fully deterministic: identical inputs (globals) produce
identical outputs, cycle counts, and block profiles — the foundation for
golden-run comparison, duplicate-and-compare checking, and reproducible
campaigns.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ir.instructions import Instruction
from ..ir.module import Module
from ..recover.regions import build_plan
from ..recover.runtime import (
    RecoveryPolicy,
    RecoveryState,
    RecoveryTelemetry,
    RollbackSignal,
    Snapshot,
)
from ..recover.warm import (
    GoldenResync,
    SnapshotLadder,
    WarmStart,
    _TrackState,
    exact_state_eq,
)
from .compiler import CompiledModule, sync_frame
from .costmodel import CostModel
from .errors import (
    ArithmeticFault,
    DetectedByDuplication,
    ExecutionError,
    HangDetected,
    MemoryFault,
    MpiAbort,
    StackOverflow,
    Trap,
    UnreachableExecuted,
)


class SerialMpi:
    """Single-rank MPI semantics (identity collectives)."""

    rank = 0
    size = 1

    def barrier(self, interp: "Interpreter") -> None:
        pass

    def allreduce_sum(self, interp: "Interpreter", value):
        return value

    def allreduce_min(self, interp: "Interpreter", value):
        return value

    def allreduce_max(self, interp: "Interpreter", value):
        return value

    def bcast(self, interp: "Interpreter", value, root: int):
        return value

    def allreduce_array(self, interp: "Interpreter", addr: int, count: int) -> None:
        # Touch the cells so bounds violations trap even at one rank.
        for i in range(count):
            interp.checked_load(addr + i)

    def sendrecv(
        self, interp: "Interpreter", send_addr: int, recv_addr: int, count: int, peer: int
    ) -> None:
        # With one rank the only valid peer is ourselves: a local copy.
        for i in range(count):
            interp.checked_store(recv_addr + i, interp.checked_load(send_addr + i))


class RunResult:
    """Outcome of one interpreted execution."""

    __slots__ = (
        "status", "cycles", "value", "error", "injection_hit", "profile",
        "recovery", "resynced", "warm_index", "entries",
    )

    def __init__(
        self,
        status: str,
        cycles: int,
        value=None,
        error: str = "",
        injection_hit: bool = False,
        profile: Optional[List[int]] = None,
        recovery: Optional[RecoveryTelemetry] = None,
        resynced: bool = False,
        warm_index: int = -1,
        entries: Optional[List[array]] = None,
    ):
        #: 'ok' | 'trap' | 'hang' | 'detected' | 'abort'
        self.status = status
        self.cycles = cycles
        self.value = value
        self.error = error
        self.injection_hit = injection_hit
        self.profile = profile
        #: RecoveryTelemetry when the run executed under a RecoveryPolicy
        self.recovery = recovery
        #: the run finished early by proving bit-identity to the golden run
        self.resynced = resynced
        #: ladder rung the run warm-started from (-1 = cold start)
        self.warm_index = warm_index
        #: per block gid, the cycle count just after each entry's charge
        #: (profiled runs; ``profile`` holds their lengths)
        self.entries = entries

    @property
    def completed(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:
        return f"<RunResult {self.status} cycles={self.cycles}>"


class Interpreter:
    """Executes a compiled module; reusable across many runs."""

    # Generated block code hits ``state.cycles`` / ``state.budget`` /
    # ``state.prof`` / ``state.cells`` on every block; __slots__ turns those
    # into fixed-offset loads instead of instance-dict lookups.
    __slots__ = (
        "cm", "module", "cfuncs", "stack_cells", "mpi", "collect_output",
        "global_overrides", "cells_end", "_reset_image", "region_tables", "cells",
        "sp", "cycles", "budget", "rbudget", "ret", "depth", "prof", "output_log",
        "inj_cfi", "inj_fns", "inj_block_fns", "inj_seen", "inj_occ",
        "inj_hit", "inj_inst", "inj_slot", "inj_trip", "inj_call_at",
        "inj_bi", "inj_mode", "inj_fire", "inj_corrupt",
        "rec", "_rec_plans", "trk", "_resume_frames",
        "_resume_next",
    )

    DEFAULT_STACK_CELLS = 1 << 16
    DEFAULT_MAX_DEPTH = 2000
    NO_BUDGET = 1 << 62

    def __init__(
        self,
        module_or_compiled: Union[Module, CompiledModule],
        cost_model: Optional[CostModel] = None,
        stack_cells: int = DEFAULT_STACK_CELLS,
        mpi=None,
        collect_output: bool = True,
    ):
        if isinstance(module_or_compiled, CompiledModule):
            self.cm = module_or_compiled
        else:
            self.cm = CompiledModule(module_or_compiled, cost_model)
        self.module = self.cm.module
        self.cfuncs = self.cm.cfuncs
        self.stack_cells = stack_cells
        self.mpi = mpi if mpi is not None else SerialMpi()
        self.collect_output = collect_output
        self.global_overrides: Dict[str, Sequence] = {}
        #: end of the logical arena: globals and guards, then
        #: ``stack_cells`` zero cells.  ``cells`` physically holds only the
        #: globals and the stack prefix a run has allocated or stored to;
        #: every cell from ``len(cells)`` up to here is an implicit int 0.
        self.cells_end = self.cm.stack_base + stack_cells
        # The globals image with global_overrides applied, rebuilt lazily
        # on the first reset() after an override change: per-trial reset
        # is one flat copy of the globals, not of the stack.
        self._reset_image: Optional[List] = None

        # mutable run state (initialised by reset)
        #: per function index, the region table the lean dispatch loop
        #: runs: each function's ``region_fns``, or in a profiled run the
        #: profiled tables (see ``CompiledModule.profiled_tables``)
        self.region_tables: List[List[Callable]] = []
        self.cells: List = []
        self.sp = 0
        self.cycles = 0
        self.budget = self.NO_BUDGET
        #: the budget of region functions: the hang budget, just below the
        #: golden flip cycle until a tripping trial trips (see trip), or
        #: just below the next resync rung once a resync-armed trial's
        #: flip has fired (see _try_resync)
        self.rbudget = self.NO_BUDGET
        self.ret = None
        self.depth = 0
        #: per block gid, each entry's post-charge cycle count (profiled
        #: runs), appended to by the generated code
        self.prof: Optional[List[array]] = None
        self.output_log: List = []
        self.inj_cfi = -1
        #: the injected function's region_fns and block_fns tables, each
        #: built on first use (a warm trial may finish before needing one)
        self.inj_fns: Optional[List[Callable]] = None
        self.inj_block_fns: Optional[List[Callable]] = None
        self.inj_seen = 0
        self.inj_occ = 0
        self.inj_hit = False
        self.inj_inst = None
        #: the injected instruction's frame slot (the guard of the shared
        #: injectable variants)
        self.inj_slot = -1
        #: the run trips at its flip's golden cycle instead of counting
        #: the injected instruction's executions
        self.inj_trip = False
        #: the golden cycle of the call that holds a tripping run's flip,
        #: the one leaf call region code then makes real (-1: none)
        self.inj_call_at = -1
        self.inj_bi = -1
        self.inj_mode = "once"
        self.inj_fire: Optional[Callable] = None
        self.inj_corrupt: Optional[Callable] = None
        #: RecoveryState while a run executes under a RecoveryPolicy
        self.rec: Optional[RecoveryState] = None
        self._rec_plans: Dict[str, Dict[int, frozenset]] = {}
        #: _TrackState while a run captures a ladder or resyncs against one
        self.trk: Optional[_TrackState] = None
        # warm-start resume chain (consumed left to right by resume_call)
        self._resume_frames = None
        self._resume_next = 0

    # -- configuration ----------------------------------------------------------

    def set_global_override(self, name: str, value) -> None:
        """Persistently override a global's initial contents (program input).

        ``value`` is a scalar or a sequence no longer than the global's cell
        count.  Applied on every subsequent ``run()``.  The override's
        contents are frozen into the reset image at the next ``run()`` —
        mutating a list after passing it here has no further effect.
        """
        gv = self.module.get_global(name)
        if isinstance(value, (list, tuple)):
            if len(value) > gv.cell_count:
                raise ValueError(
                    f"override for {name} has {len(value)} cells, "
                    f"global has {gv.cell_count}"
                )
        self.global_overrides[name] = value
        self._reset_image = None

    def clear_global_overrides(self) -> None:
        self.global_overrides.clear()
        self._reset_image = None

    # -- state management ----------------------------------------------------------

    def reset(self, cells: bool = True) -> None:
        image = self._reset_image
        if image is None:
            # Bake overrides into the template once; campaigns reset
            # thousands of times per second and the overrides never change
            # mid-campaign.
            image = list(self.cm.global_template)
            for name, value in self.global_overrides.items():
                base = self.cm.global_addr[name]
                if isinstance(value, (list, tuple)):
                    image[base : base + len(value)] = list(value)
                else:
                    image[base] = value
            self._reset_image = image
        if cells:
            self.cells = image.copy()
        self.region_tables = [cf.region_fns for cf in self.cfuncs]
        self.sp = self.cm.stack_base
        self.cycles = 0
        self.ret = None
        self.depth = 0
        self.prof = None
        self.output_log = []
        self.inj_cfi = -1
        self.inj_fns = None
        self.inj_block_fns = None
        self.inj_seen = 0
        self.inj_occ = 0
        self.inj_hit = False
        self.inj_inst = None
        self.inj_slot = -1
        self.inj_trip = False
        self.inj_call_at = -1
        self.inj_bi = -1
        self.inj_mode = "once"
        self.inj_fire = None
        self.inj_corrupt = None
        self.rec = None
        self.trk = None
        self._resume_frames = None
        self._resume_next = 0

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        args: Sequence = (),
        injection=None,
        profile: bool = False,
        cycle_budget: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
        warm: Optional[WarmStart] = None,
        fire: Optional[int] = None,
        call_at: Optional[int] = None,
    ) -> RunResult:
        """Execute ``entry`` from a fresh state.

        ``injection`` is an optional
        :class:`repro.faults.models.InjectionSpec` (a fault model's
        ``injection_for``): after the ``occurrence``-th dynamic execution
        of ``instruction`` its epilogue (``mode``) corrupts the result
        value through the model's corruption closure, or, for ``multi``,
        on every execution its firing closure selects.

        ``profile`` records, per block gid, the cycle count just after
        each entry's charge (``RunResult.entries``; ``RunResult.profile``
        counts them): the run dispatches through the profiled region
        tables, lean region code plus the bumps.  ``fire`` is a
        single-shot injection's entry from a golden run's recording, the
        golden cycle of the flip block instance: the run is the golden run
        up to there, so it runs the plain tables until that block's top
        and :meth:`trip` runs that one instance in its injectable variant,
        instead of counting the instruction's executions.  It is only sound when the block's
        entries and the instruction's executions come in the same order
        (no call before the site in its block can re-enter the site's
        function) and the block charges at least one cycle;
        ``Campaign.run_site`` decides that.  A resync-armed warm trial
        with an injection needs it.  ``call_at`` comes with ``fire``: the
        golden cycle at which the call instance holding the flip is made
        (``repro.faults.campaign.call_cycle``).  Region code inlines every
        other call to the injected function when it is a leaf.

        ``cycle_budget`` bounds execution (hang detection); ``None`` means
        effectively unlimited.

        ``recovery`` (a :class:`~repro.recover.RecoveryPolicy`) arms the
        rollback runtime: fired ``ipas.check.*`` intrinsics restore the
        most recent region snapshot and re-execute instead of failing the
        run, escalating to the fail-stop ``detected`` status when the
        policy's ladder is exhausted.  ``None`` (the default) executes
        exactly as before — recovery is strictly opt-in.

        ``warm`` (a :class:`~repro.recover.WarmStart`) restores a golden
        ladder rung instead of starting at instruction 0 and executes only
        the suffix; with ``warm.resync`` armed (and no recovery policy) the
        run finishes with the golden result as soon as its state provably
        re-converges with the golden run.  The result is bit-identical to
        the cold run in every observable field.
        """
        # A warm restore replaces the whole cells list, so the reset image
        # copy would be dead work on that path.
        self.reset(cells=warm is None or warm.snapshot is None)
        self.budget = cycle_budget if cycle_budget is not None else self.NO_BUDGET
        self.rbudget = self.budget
        if profile:
            self.prof = [array("q") for _ in range(self.cm.total_blocks)]
            self.region_tables = self.cm.profiled_tables()
        if injection is not None:
            inst = injection.instruction
            if injection.occurrence < 1:
                raise ValueError("occurrence is 1-based")
            self.inj_occ = injection.occurrence
            self.inj_mode = injection.mode
            self.inj_corrupt = injection.corrupt
            self.inj_fire = injection.fire
            record = self.cm.record_for(inst)
            self.inj_cfi = record.cfi
            self.inj_inst = inst
            self.inj_slot = record.slot
            self.inj_bi = record.block_index
        if fire is not None:
            if injection is None or recovery is not None or self.inj_mode == "multi":
                raise ValueError("only single-shot injections without recovery trip")
            if call_at is None:
                raise ValueError("a fire cycle needs a call cycle")
            self.inj_trip = True
            self.rbudget = min(self.budget, fire - 1)
            self.inj_call_at = call_at
        elif call_at is not None:
            raise ValueError("a call cycle needs a fire cycle")
        if recovery is not None:
            plan = self._rec_plans.get(entry)
            if plan is None:
                plan = build_plan(self.cm, entry)
                self._rec_plans[entry] = plan
            self.rec = RecoveryState(recovery, plan)
        warm_index = -1
        if warm is not None:
            if warm.snapshot is not None:
                warm_index = warm.snapshot.index
                self.inj_seen = warm.inj_seen
            # Resync needs the frame-mirroring dispatch loop; recovery
            # telemetry must replay in full, so resync stays off with a
            # policy armed.
            if (
                warm.resync
                and recovery is None
                and warm.ladder is not None
                and warm.ladder.snapshots
            ):
                if injection is not None and fire is None:
                    raise ValueError("a resync-armed injected run needs its fire cycle")
                trk = _TrackState()
                trk.resync_pts = warm.ladder.snapshots
                trk.golden_cycles = warm.ladder.golden_cycles
                if warm.snapshot is not None:
                    # Rungs at or before the restore point are already
                    # behind the trial in state-space; start the cursor
                    # (and the offset-probe window) just past them.
                    trk.ri = warm.snapshot.index + 1
                trk.rebuild_cand()
                self.trk = trk
            elif fire is not None and warm.snapshot is not None:
                raise ValueError("a tripping warm trial must be resync-armed")

        entry_index = self.cm.get_function_index(entry)
        status, error, value = "ok", "", None
        resynced = False
        try:
            if warm is not None and warm.snapshot is not None:
                value = self._resume_from(warm)
            else:
                value = self.call(entry_index, tuple(args))
        except GoldenResync as exc:
            # The trial's state matched a golden rung bit-for-bit after the
            # flip fired: the remaining execution equals the golden suffix.
            # ``delta`` shifts the cycle count for offset rendezvous (the
            # suffix's cycle charges are a function of the matched state,
            # so the trial finishes exactly ``delta`` off the golden run).
            resynced = True
            assert warm is not None
            value = warm.ladder.golden_value
            self.cycles = warm.ladder.golden_cycles + exc.delta
        except DetectedByDuplication as exc:
            status, error = "detected", str(exc)
        except RollbackSignal as exc:
            # Defensive: a signal escaping every recovery frame degrades to
            # the fail-stop detection it would have been without recovery.
            status, error = "detected", str(exc)
        except HangDetected as exc:
            status, error = "hang", str(exc) or "cycle budget exceeded"
        except MpiAbort as exc:
            status, error = "abort", str(exc)
        except Trap as exc:
            status, error = "trap", f"{type(exc).__name__}: {exc}"
        except RecursionError:
            status, error = "trap", "StackOverflow: host recursion limit"
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            # Defensive: guarded codegen should prevent these, but a fault
            # can push values into odd corners; treat as a crash symptom.
            status, error = "trap", f"host-level {type(exc).__name__}: {exc}"
        self.trk = None
        self._resume_frames = None
        prof = self.prof
        return RunResult(
            status,
            self.cycles,
            value=value,
            error=error,
            injection_hit=self.inj_hit,
            profile=list(map(len, prof)) if prof is not None else None,
            recovery=self.rec.telemetry if self.rec is not None else None,
            resynced=resynced,
            warm_index=warm_index,
            entries=prof,
        )

    def call(self, cfi: int, args: Tuple) -> object:
        """Invoke compiled function ``cfi`` (used by generated call steps).

        This is the block-dispatch hot loop: attribute lookups are hoisted
        into locals and the loop body is a single indexed call per block.
        It dispatches through ``region_tables`` (``region_fns``, or the
        profiled tables in a profiled run), so entering a loop nest runs
        the whole nest in one region function, whichever of its loop
        headers the loop enters it at.  With recovery or
        tracking armed (``self.rec`` / ``self.trk`` set) it delegates to
        :meth:`_call_tracked`, which keeps the frame list coherent for its
        snapshots, rungs and compares.

        The injected function of a counting run dispatches through its
        injectable table, and region code makes every call to it a real
        call when it is a leaf.  In a tripping run it keeps ``region_fns``
        and, while the trip is ahead (``rbudget`` below the hang budget),
        tests each block's charge against it: the flip block trips at its
        top, here or, inside a region, in :meth:`step` after the deopt exit
        at the region's last test point before it.  Region
        code inlines every call to a leaf but the one that holds the flip
        (see ``run``'s ``call_at``).
        """
        if self.rec is not None or self.trk is not None:
            return self._call_tracked(cfi, args)
        depth = self.depth + 1
        if depth > self.DEFAULT_MAX_DEPTH:
            raise StackOverflow("call depth limit exceeded")
        self.depth = depth
        sp0 = self.sp
        cf = self.cfuncs[cfi]
        frame: List = [None] * cf.nslots
        if args:
            frame[: len(args)] = args
        if cfi != self.inj_cfi:
            fns = self.region_tables[cfi]
            bi = fns[0](frame, self)
        elif self.inj_trip:
            fns = self.region_tables[cfi]
            costs = cf.costs
            bi = 0
            while bi >= 0 and self.rbudget < self.budget:
                if self.cycles + costs[bi] > self.rbudget:
                    bi = self.trip(frame)
                else:
                    bi = fns[bi](frame, self)
        else:
            fns = self.inj_fns or self._injected_region_fns()
            bi = fns[0](frame, self)
        while bi >= 0:
            bi = fns[bi](frame, self)
        self.depth = depth - 1
        self.sp = sp0
        return self.ret

    def _call_tracked(self, cfi: int, args: Tuple, _resume=None) -> object:
        """Recovery/tracking-aware twin of :meth:`call`.

        Same dispatch loop, plus up to three responsibilities depending on
        what is armed:

        * **recovery** (``self.rec``): capture a region snapshot whenever
          control reaches one of this function's region boundaries, and
          handle :class:`RollbackSignal` by restoring the most recent
          snapshot — or escalating outward when the policy's ladder
          refuses.  Each frame keeps at most one live snapshot (``mine``),
          replaced on recapture; frames push onto ``rec.stack`` in call
          order and pop on return, so whenever a signal reaches a frame
          that holds a snapshot, that snapshot is the stack top.

        * **ladder capture** (``self.trk.capturing``, golden run only):
          mirror the live call stack in ``trk.frames`` and capture a
          full-state :class:`WarmSnapshot` rung at the configured cycle
          stride and at region boundaries.

        * **golden resync** (``self.trk.resync_pts``, warm trials): mirror
          the call stack and, once the injected flip has fired, compare
          against upcoming golden rungs — a bit-exact match raises
          :class:`GoldenResync` (the run's remaining execution provably
          equals the golden suffix).  Between those events it runs tracked
          region functions (``tracked_fns``), which keep the frame list
          and this frame's tracking record coherent and return at a deopt
          exit before the next event, the trip included.

        ``_resume`` (a :class:`~repro.recover.warm.WarmFrame`) re-enters a
        suspended frame mid-block: a compiled *resume block* skips the
        already-executed prefix, re-issues the pending call via
        :meth:`resume_call` (chaining to the next warm frame), and falls
        through to the normal dispatch loop — with no cycle recharge, since
        the block was charged at entry before the rung was captured.
        """
        rec = self.rec
        trk = self.trk
        depth = self.depth + 1
        if depth > self.DEFAULT_MAX_DEPTH:
            raise StackOverflow("call depth limit exceeded")
        self.depth = depth
        resume_fn = None
        mine: Optional[Snapshot] = None
        if _resume is None:
            sp0 = self.sp
            cf = self.cfuncs[cfi]
            frame: List = [None] * cf.nslots
            if args:
                frame[: len(args)] = args
            bi = 0
            call_k = 0
        else:
            wf = _resume
            cfi = wf.cfi
            bi = wf.bi
            sp0 = wf.sp0
            cf = self.cfuncs[cfi]
            frame = list(wf.regs)
            if rec is not None and wf.rec_mine is not None:
                # Restore this frame's live recovery snapshot as a fresh
                # copy (trials must never mutate the shared ladder); the
                # pinned flag is the one frozen at capture time — pin()
                # mutates snapshots after the fact.
                src = wf.rec_mine
                mine = Snapshot(
                    src.cfi,
                    src.bi,
                    src.cells,
                    src.sp,
                    src.cycles,
                    src.frame,
                    src.out_len,
                    src.inj_seen,
                    src.tainted,
                )
                mine.pinned = wf.rec_pinned
                rec.stack.append(mine)
            if wf.call_k is None:
                call_k = 0  # innermost frame: re-enter the loop at bi
            else:
                call_k = wf.call_k + 1  # the pending call counts as made
                # A tripping trial's rung precedes its flip block instance,
                # so only a counting one resumes into an armed epilogue.
                armed = (
                    cfi == self.inj_cfi and bi == self.inj_bi and not self.inj_trip
                )
                resume_fn = self.cm.resume_block_fn(
                    cfi, bi, wf.call_k, self.inj_inst if armed else None,
                    self.inj_mode,
                )
        # Per-block table: every hook below needs a coherent frame list at
        # each block boundary.
        if cfi != self.inj_cfi or self.inj_trip:
            fns = cf.block_fns
        else:
            fns = self._injected_block_fns()
        record = None
        if trk is not None:
            if trk.frames and _resume is None:
                trk.frames[-1][2] += 1  # the parent initiated one more call
            record = [cfi, bi, call_k, frame, sp0, mine]
            trk.frames.append(record)
        if rec is None and trk is not None and not trk.capturing:
            # Resync-only warm trial: no recovery policy means no
            # RollbackSignal can reach this frame, so the loop needs no
            # try/except and no snapshot logic — it runs the entire trial
            # suffix, so every avoided per-block instruction matters.
            # Between events it dispatches tracked regions (see
            # _gen_region), which leave through a deopt exit before the
            # block whose charge passes self.rbudget: the loop then steps
            # block by block onto the event.  Before the flip the event is
            # the trip (a resync-armed trial trips, see run), and the
            # first resync check comes at the next block top.  After it,
            # every table is plain: a single-shot flip never fires again
            # (resync is off for multi-shot models).
            tfns = cf.tracked_fns
            if tfns is None:
                tfns = self.cm.tracked_region_fns(cfi)
            costs = cf.costs
            try:
                if resume_fn is not None:
                    bi = resume_fn(frame, self)
                while bi >= 0:
                    if self.trk is None:
                        # Resync gave up (or ran out of rungs) somewhere
                        # below this frame: finish at full lean-loop speed.
                        # Entering region_fns at any block is legal: a
                        # region entry at one of its loop headers loads
                        # what it reads from the coherent frame list.
                        lean = self.region_tables[cfi]
                        while bi >= 0:
                            bi = lean[bi](frame, self)
                        break
                    record[1] = bi
                    record[2] = 0
                    if self.inj_hit:
                        if self.cycles >= trk.next_resync:
                            self._try_resync(trk)  # may raise GoldenResync
                            if self.trk is None:
                                continue
                        else:
                            for snap, cregs in trk.cand:
                                if frame == cregs:
                                    self._try_probe(trk, snap)
                                    break
                    if self.cycles + costs[bi] <= self.rbudget:
                        bi = tfns[bi](frame, self)
                    elif self.inj_hit or self.rbudget == self.budget:
                        bi = fns[bi](frame, self)  # a resync event, or a hang
                    else:
                        bi = self.trip(frame)
            finally:
                trk.frames.pop()
            self.depth = depth - 1
            self.sp = sp0
            return self.ret
        boundaries = rec.plan.get(cfi) if rec is not None else None
        stack = rec.stack if rec is not None else None
        capturing = trk is not None and trk.capturing
        cap_boundaries = trk.plan.get(cfi) if capturing else None
        while True:
            try:
                if resume_fn is not None:
                    fn = resume_fn
                    resume_fn = None
                    bi = fn(frame, self)
                while bi >= 0:
                    if record is not None:
                        record[1] = bi
                        record[2] = 0
                    if capturing:
                        c = self.cycles
                        if c >= trk.next_capture or (
                            cap_boundaries is not None
                            and bi in cap_boundaries
                            and c - trk.last_capture >= trk.region_spacing
                        ):
                            trk.capture(self)
                    if boundaries is not None and bi in boundaries and (
                        rec.should_snapshot(self.cycles)
                    ):
                        # Only cells[:sp] are defined program state: cells
                        # past sp are dead residue of returned frames, and
                        # any live pointer is below sp — copying the prefix
                        # keeps snapshots proportional to the live stack.
                        # alloc() keeps the list at least sp cells long.
                        snap = Snapshot(
                            cfi,
                            bi,
                            self.cells[: self.sp],
                            self.sp,
                            self.cycles,
                            list(frame),
                            len(self.output_log),
                            self.inj_seen,
                            self.inj_hit,
                        )
                        if mine is not None:
                            stack.pop()
                        stack.append(snap)
                        mine = snap
                        if record is not None:
                            record[5] = snap
                        rec.telemetry.snapshots += 1
                        rec.last_snapshot_cycles = self.cycles
                        if rec.policy.snapshot_cost:
                            self.cycles += rec.policy.snapshot_cost
                    bi = fns[bi](frame, self)
                break
            except RollbackSignal as signal:
                if mine is None:
                    raise  # some enclosing frame owns the nearest snapshot
                reason = rec.on_detection(mine, self.cycles)
                if reason is not None:
                    stack.pop()
                    mine = None
                    if record is not None:
                        record[5] = None
                    if stack:
                        raise  # escalate to the enclosing region
                    raise DetectedByDuplication(
                        f"{signal.check_name} failed for "
                        f"{signal.instruction!r} at "
                        f"{signal.function}:{signal.block} "
                        f"(recovery escalated: {reason})",
                        check_name=signal.check_name,
                        function=signal.function,
                        block=signal.block,
                        instruction=signal.instruction,
                    ) from None
                # Roll back: nested frames were unwound by the signal, so
                # restoring memory, sp, depth, and this frame's registers
                # re-creates the snapshot instant exactly.  Cycles stay
                # monotonic — wasted work counts toward the hang budget.
                self.cells[: mine.sp] = mine.cells
                self.sp = mine.sp
                self.depth = depth
                self.ret = None
                del stack[stack.index(mine) + 1 :]
                del self.output_log[mine.out_len :]
                self.inj_seen = mine.inj_seen
                if self.inj_hit:
                    # Single-shot fault models: the corruption already
                    # happened once; the re-execution must not replay it
                    # (inj_seen restarts below inj_occ, so zeroing the
                    # occurrence disarms the once epilogue).
                    # Multi-shot injectors never reach this path —
                    # check_failed fail-stops instead of signalling.
                    self.inj_occ = 0
                if trk is not None:
                    del trk.frames[trk.frames.index(record) + 1 :]
                bi = mine.bi
        if mine is not None:
            stack.pop()
        if record is not None:
            trk.frames.pop()
        self.depth = depth - 1
        self.sp = sp0
        return self.ret

    def _injected_region_fns(self) -> List[Callable]:
        """The injected function's ``region_fns`` table, compiled on first
        use: the injectable variant at every entry of the region holding
        the site, so a run that enters it at an inner loop header counts
        there too, and the injectable block at the site's block (see
        ``CompiledModule.injected_region_entries``).  A profiled run
        dispatches through the injected ``block_fns`` table instead: no
        injectable region bumps the profile."""
        if self.prof is not None:
            fns = self._injected_block_fns()
        else:
            cfi, entries = self.cm.injected_region_entries(
                self.inj_inst, mode=self.inj_mode
            )
            fns = list(self.region_tables[cfi])
            for bi, fn in entries.items():
                fns[bi] = fn
        self.inj_fns = fns
        return fns

    def _injected_block_fns(self) -> List[Callable]:
        """The injected function's ``block_fns`` table, compiled on first
        use: untracked trials never need it."""
        fns = self.inj_block_fns
        if fns is None:
            _, bi, fn = self.cm.injected_block_fn(self.inj_inst, mode=self.inj_mode)
            fns = list(self.cfuncs[self.inj_cfi].block_fns)
            fns[bi] = fn
            self.inj_block_fns = fns
        return fns

    def deopt(self, frame: List, region_locals: Dict, cycles: int, cost: int) -> None:
        """A lean region's deopt exit at a test point, called with its
        frame, its locals, the point's charged count ``cycles`` and its
        ``cost``: hang past the hang budget, else put ``self.cycles`` back
        to the point's top and write the region's bound registers back to
        ``frame``.  Returns None, the region's count while :meth:`step`
        runs."""
        if cycles > self.budget:
            self.hang()
        self.cycles = cycles - cost
        sync_frame(frame, region_locals)

    def step(self, frame: List, cfi: int, bi: int) -> int:
        """Run block ``bi`` of function ``cfi`` from its top (called after
        a lean region's :meth:`deopt`, ``frame`` coherent) on the per-block
        table and return the block it leaves to; the dispatch loop runs on
        from there, block by block until a region entry.  The block trips
        (:meth:`trip`) when its charge passes the region budget below the
        hang budget: it is the flip block.  In a counting run's injected
        function it runs on the injected ``block_fns`` table, where the
        site counts."""
        cf = self.cfuncs[cfi]
        if self.rbudget < self.budget and self.cycles + cf.costs[bi] > self.rbudget:
            return self.trip(frame)
        if cfi == self.inj_cfi and not self.inj_trip:
            return self._injected_block_fns()[bi](frame, self)
        return cf.block_fns[bi](frame, self)

    def trip(self, frame: List) -> int:
        """Run the flip block instance (called at its top, uncharged, with
        ``frame`` coherent) in its injectable variant, and return the
        block it leaves to.

        A tripping run (``run(fire=...)``) reaches here exactly once: its
        pre-flip execution is the golden run's, so the first block whose
        charge passes ``rbudget`` (the golden flip cycle less one) is the
        flip block's ``occurrence``-th entry, and no count of earlier
        executions is needed: ``inj_seen`` starts one short of the
        occurrence.  ``rbudget`` goes back to the hang budget first, so
        a callee of the flip block (a call before the site) runs on.
        """
        self.rbudget = self.budget
        self.inj_seen = self.inj_occ - 1
        _, _, fn = self.cm.injected_block_fn(self.inj_inst, self.inj_mode)
        return fn(frame, self)

    # -- warm-start execution (snapshot-ladder trials) -----------------------------

    def resume_call(self) -> object:
        """Re-issue a suspended call (invoked from compiled resume blocks).

        Consumes the next frame of the warm-start resume chain, so nested
        suspended frames re-enter one another exactly as the original call
        instructions did.
        """
        k = self._resume_next
        self._resume_next = k + 1
        return self._call_tracked(0, (), _resume=self._resume_frames[k])

    def _resume_from(self, warm: WarmStart) -> object:
        """Restore a ladder rung and execute the suffix."""
        snap = warm.snapshot
        self.cells = list(snap.cells)
        self.sp = snap.sp
        self.cycles = snap.cycles
        self.output_log = list(snap.out_log)
        rec = self.rec
        if rec is not None:
            # Replay the golden run's telemetry position so a corrected
            # trial reports counts bit-identical to its cold twin.
            rec.telemetry.snapshots = snap.rec_snapshots
            rec.last_snapshot_cycles = snap.rec_last_cycles
        self._resume_frames = snap.frames
        self._resume_next = 1
        return self._call_tracked(0, (), _resume=snap.frames[0])

    def capture_ladder(
        self,
        entry: str = "main",
        args: Sequence = (),
        stride: int = 1,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> SnapshotLadder:
        """Run a golden execution, capturing a full-state snapshot ladder.

        Rungs are captured whenever the cycle counter crosses the next
        ``stride`` multiple, plus at region boundaries (function entries
        and loop headers from :mod:`repro.recover.regions`) at least
        ``stride // 4`` cycles apart — region boundaries are where frames
        are shallow and restores are cheap.  Pass the campaign's
        ``recovery`` policy so rung-embedded recovery state matches what
        cold trials would have at the same instant.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.reset()
        self.budget = self.rbudget = self.NO_BUDGET
        self.prof = [array("q") for _ in range(self.cm.total_blocks)]
        plan = self._rec_plans.get(entry)
        if plan is None:
            plan = build_plan(self.cm, entry)
            self._rec_plans[entry] = plan
        if recovery is not None:
            self.rec = RecoveryState(recovery, plan)
        trk = _TrackState()
        trk.capturing = True
        trk.plan = plan
        trk.stride = stride
        trk.region_spacing = max(stride // 4, 1)
        trk.next_capture = stride
        trk.last_capture = 0
        trk.ladder = []
        self.trk = trk
        try:
            value = self.call(self.cm.get_function_index(entry), tuple(args))
        finally:
            self.trk = None
        return SnapshotLadder(trk.ladder, stride, self.cycles, value, entry)

    def _try_resync(self, trk: _TrackState) -> None:
        """Compare against the next golden rung once its cycle count is due.

        Rung cycle counts are strictly increasing and trial cycles are
        monotonic, so a single catch-up index suffices; each rung is
        compared at most once per trial (at exact cycle equality — any
        overshoot proves the trial's cycle path diverged at that rung and
        moves on).

        Every missed rendezvous after the first targeted rung counts as a
        failure; after ``trk.max_fails`` of them the trial gives up on
        resync entirely — ``self.trk`` detaches so every subsequent call
        dispatches through the lean loop.  Rungs passed before the flip
        fired (the catch-up on the first check) are not evidence of
        divergence and are skipped free of charge.
        """
        pts = trk.resync_pts
        i = trk.ri
        n = len(pts)
        c = self.cycles
        while i < n and pts[i].cycles < c:
            i += 1
        fail = False
        if i < n and pts[i].cycles == c:
            if self._resync_match(pts[i], trk):
                raise GoldenResync
            fail = True  # compared bit-for-bit and diverged: rung is spent
            i += 1
        elif trk.primed:
            fail = True  # the targeted rung was overshot post-flip
        trk.primed = True
        if i != trk.ri:
            trk.ri = i
            trk.rebuild_cand()
        if i >= n:
            # No rungs left: resync can never fire again, so detach and
            # let every dispatch loop finish at lean speed.
            trk.next_resync = self.NO_BUDGET
            self.trk = None
            self.rbudget = self.budget
            return
        trk.next_resync = pts[i].cycles
        # A tracked region exits before the block whose charge reaches the
        # rung, so the dispatch loop steps onto the rung's cycle count.
        self.rbudget = min(self.budget, trk.next_resync - 1)
        if fail:
            trk.fails += 1
            if trk.fails >= trk.max_fails:
                trk.next_resync = self.NO_BUDGET
                self.trk = None
                self.rbudget = self.budget

    def _try_probe(self, trk: _TrackState, snap) -> None:
        """Full-state compare against one offset-probe candidate rung.

        Triggered by the register prefilter (the innermost frame's register
        file equals the rung's), with no cycle-equality requirement: a
        match at ``snap.cycles + delta`` finishes with the golden value and
        ``golden_cycles + delta`` — the suffix's cycle charges depend only
        on the matched state.  The hang budget is the one cycle-coupled
        observable, so a shifted finish that would cross it disqualifies
        the shortcut (the trial simply keeps executing, like its cold twin,
        toward the hang).
        """
        if self._resync_match(snap, trk):
            delta = self.cycles - snap.cycles
            if trk.golden_cycles + delta <= self.budget:
                raise GoldenResync(delta)
        trk.probe_dead.add(snap.index)
        trk.probe_fails += 1
        trk.rebuild_cand()

    def _resync_match(self, snap, trk: _TrackState) -> bool:
        """Bit-exact state comparison against one golden rung.

        Ordered cheapest-first: frame shapes, register files, output log,
        then the logical cells arena, each through :func:`exact_state_eq`
        (a C-speed ``==`` reject, then a ``marshal`` image compare that
        tells ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` apart, which
        ``==`` would equate and which diverge downstream).  The physical
        lists may differ in length: past the shorter one's end the logical
        arena is int ``0``, so the longer one's tail must be exactly that.
        """
        frames = trk.frames
        sframes = snap.frames
        if len(frames) != len(sframes) or self.sp != snap.sp:
            return False
        for r, wf in zip(frames, sframes):
            k = 0 if wf.call_k is None else wf.call_k + 1
            if r[0] != wf.cfi or r[1] != wf.bi or r[2] != k or r[4] != wf.sp0:
                return False
            if not exact_state_eq(r[3], wf.regs):
                return False
        if not exact_state_eq(self.output_log, snap.out_log):
            return False
        if len(self.cells) == len(snap.cells):
            return exact_state_eq(self.cells, snap.cells)
        short, long = sorted((self.cells, snap.cells), key=len)
        n = len(short)
        tail = long[n:]
        return exact_state_eq(tail, [0] * len(tail)) and exact_state_eq(
            long[:n], short
        )

    # -- memory helpers (runtime-internal accesses use the same trap rules) -------

    def alloc(self, count: int) -> int:
        addr = self.sp
        new_sp = addr + count
        if new_sp > self.cells_end:
            raise StackOverflow(f"stack exhausted allocating {count} cells")
        cells = self.cells
        if new_sp > len(cells):
            # Grow in place: running code holds this list in a local.
            cells.extend([0] * (new_sp - len(cells)))
        self.sp = new_sp
        return addr

    def load_past(self, addr: int):
        """A load at or past the physical end of ``cells`` (called from the
        ``IndexError`` arm of generated loads): an implicit int 0 below
        ``cells_end``, a memory fault from there on."""
        if addr >= self.cells_end:
            self.trap_mem(addr)
        return 0

    def store_past(self, addr: int):
        """A store at or past the physical end of ``cells`` (called from the
        ``IndexError`` arm of generated stores): below ``cells_end`` the
        list grows in place through ``addr`` and the cell's old value, an
        implicit int 0, is returned; from there on, a memory fault."""
        if addr >= self.cells_end:
            self.trap_mem(addr)
        cells = self.cells
        cells.extend([0] * (addr + 1 - len(cells)))
        return 0

    def checked_load(self, addr: int):
        if addr < 0:
            self.trap_mem(addr)
        try:
            v = self.cells[addr]
        except IndexError:
            v = self.load_past(addr)
        if v is None:
            self.trap_mem(addr)
        return v

    def checked_store(self, addr: int, value) -> None:
        if addr < 0:
            self.trap_mem(addr)
        try:
            old = self.cells[addr]
        except IndexError:
            old = self.store_past(addr)
        if old is None:
            self.trap_mem(addr)
        self.cells[addr] = value

    def read_global(self, name: str):
        """Read a global's current contents (scalar, or list for arrays)."""
        gv = self.module.get_global(name)
        base = self.cm.global_addr[name]
        if gv.value_type.is_array():
            return list(self.cells[base : base + gv.cell_count])
        return self.cells[base]

    # -- trap raisers (called from generated code) -----------------------------------

    def trap_mem(self, addr) -> None:
        raise MemoryFault(f"invalid address {addr}")

    def trap_div(self) -> None:
        raise ArithmeticFault("integer division by zero")

    def trap_fptosi(self) -> None:
        raise ArithmeticFault("float-to-int conversion out of range")

    def trap_unreachable(self) -> None:
        raise UnreachableExecuted("executed 'unreachable'")

    def hang(self) -> None:
        raise HangDetected(f"exceeded cycle budget {self.budget}")

    def check_failed(self, site: int = -1) -> None:
        """A duplication check diverged (called from generated code).

        ``site`` indexes ``cm.check_sites`` (baked in at compile time) and
        resolves to the failing check's function, block, and checked value.
        With recovery armed this raises the non-terminal
        :class:`RollbackSignal` instead of the fail-stop detection.
        """
        if 0 <= site < len(self.cm.check_sites):
            fn_name, block_name, check_name, value_name = self.cm.check_sites[site]
        else:
            fn_name = block_name = value_name = "?"
            check_name = "ipas.check"
        if self.rec is not None and self.inj_mode != "multi":
            raise RollbackSignal(fn_name, block_name, check_name, value_name)
        # Multi-shot injectors (intermittent/persistent models) corrupt
        # deterministically on re-execution, so a rollback could never
        # correct the run — escalate straight to the fail-stop detection.
        raise DetectedByDuplication(
            f"{check_name} failed for {value_name!r} at {fn_name}:{block_name}",
            check_name=check_name,
            function=fn_name,
            block=block_name,
            instruction=value_name,
        )

    def recovery_pin(self) -> None:
        """Forbid rollback past this instant (irreversible communication —
        an MPI collective — just executed; replaying it would desynchronise
        the job)."""
        if self.rec is not None:
            self.rec.pin()

    # -- I/O and MPI bindings (called from generated code) ------------------------------

    def io_print(self, value) -> None:
        if self.collect_output:
            self.output_log.append(value)

    def mpi_rank(self) -> int:
        return self.mpi.rank

    def mpi_size(self) -> int:
        return self.mpi.size

    def mpi_barrier(self) -> None:
        self.mpi.barrier(self)

    def mpi_allreduce_sum_f64(self, value):
        return self.mpi.allreduce_sum(self, value)

    def mpi_allreduce_sum_i64(self, value):
        return self.mpi.allreduce_sum(self, value)

    def mpi_allreduce_min_f64(self, value):
        return self.mpi.allreduce_min(self, value)

    def mpi_allreduce_max_f64(self, value):
        return self.mpi.allreduce_max(self, value)

    def mpi_allreduce_max_i64(self, value):
        return self.mpi.allreduce_max(self, value)

    def mpi_bcast_f64(self, value, root):
        return self.mpi.bcast(self, value, root)

    def mpi_bcast_i64(self, value, root):
        return self.mpi.bcast(self, value, root)

    def mpi_allreduce_sum_f64_array(self, addr, count) -> None:
        self.mpi.allreduce_array(self, addr, count)

    def mpi_allreduce_sum_i64_array(self, addr, count) -> None:
        self.mpi.allreduce_array(self, addr, count)

    def mpi_sendrecv_f64(self, send_addr, recv_addr, count, peer) -> None:
        self.mpi.sendrecv(self, send_addr, recv_addr, count, peer)


def run_module(
    module: Module,
    entry: str = "main",
    overrides: Optional[Dict[str, object]] = None,
    cycle_budget: Optional[int] = None,
) -> Tuple[RunResult, Interpreter]:
    """One-shot convenience: compile, run, and return (result, interpreter)."""
    interp = Interpreter(module)
    if overrides:
        for name, value in overrides.items():
            interp.set_global_override(name, value)
    result = interp.run(entry, cycle_budget=cycle_budget)
    return result, interp
