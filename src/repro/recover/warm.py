"""Golden-run snapshot ladders: prefix-memoized warm-start trials.

Every injection trial historically re-executed the workload from
instruction 0 even though the fault fires at one known dynamic instance —
campaign cost was O(trials × program) when it should be O(trials × suffix)
(FastFlip's observation; see PAPERS.md).  This module supplies the state
containers for the warm-start engine in
:mod:`repro.interp.interpreter`:

* During the (already mandatory) golden profiled run the interpreter
  captures a **ladder** of :class:`WarmSnapshot` rungs — the cells
  image, stack pointer, the entire frame stack (generalizing the
  single-frame recovery :class:`~repro.recover.runtime.Snapshot`), the
  output log, the block-execution profile, and recovery telemetry counters
  — at a configurable cycle stride.

* Each trial restores the latest rung whose state precedes its injection
  point (:meth:`SnapshotLadder.plan_site`) and executes only the suffix.
  A tripping trial picks the rung by the flip's golden cycle; a counting
  one re-derives the injector's occurrence counter from the rung's
  profile.  Either way the flip lands on exactly the same dynamic
  instance as a cold run.

* When no recovery policy is armed, trials additionally *resync* against
  later rungs: once the flip has fired, reaching a rung's cycle count with
  bit-identical state proves the remaining execution equals the golden
  suffix, so the run finishes immediately with the golden result
  (:class:`GoldenResync`) — the masked-trial fast path.

Cells snapshots copy the interpreter's **physical** list (not
``cells[:sp]``): dead residue beyond ``sp`` must match the cold run
bit-for-bit, because a wild pointer produced by a flip may read it.  The
list ends past the highest stack cell the golden run had allocated or
stored to by the capture; the rest of the logical arena, up to
``Interpreter.cells_end``, is an implicit int ``0`` tail, so a rung of a
run that never touches its stack holds only the globals.  Restores copy the physical list back, and resync compares
logical arenas (see ``Interpreter._resync_match``).  Rungs are immutable
once captured and are shared copy-on-write across forked campaign workers.
"""

from __future__ import annotations

from bisect import bisect_left
from marshal import dumps as _marshal_dumps
from math import copysign
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import CallInst


class GoldenResync(Exception):
    """A warm trial's state became bit-identical to a golden rung.

    Raised out of the dispatch loop; the interpreter finishes the run with
    the golden result (status ``ok``, golden return value and golden
    cycles).  Deterministic execution makes this sound: identical state
    implies identical remaining execution, and a rung is compared only at
    its own cycle count, so the trial finishes with exactly the golden
    cycle count — what its cold twin reports.
    """


def exact_state_eq(a, b) -> bool:
    """Bit-exact list equality, stricter than ``==``.

    ``==`` alone would equate ``1`` with ``1.0`` and ``True`` (a wild store
    can legally leave either in a cell, and the suffix may then diverge —
    e.g. ``&`` on a float raises), ``2**70`` with ``float(2**70)``, and
    ``0.0`` with ``-0.0`` (which differ through the ``bitcast``
    intrinsic).  The C-speed ``==`` rejects almost every mismatch first;
    a pass is then confirmed by comparing ``marshal`` format 2 images,
    which write floats as raw IEEE bits, tag ``bool``, ``int`` and
    ``float`` apart and hold no object-identity references.

    NaN: list ``==`` tests identity before ``__eq__``, so a NaN object
    both lists hold (one carried over from the golden run and never
    rewritten since) compares equal, which is sound because it is the
    same bits; two distinct NaN objects never do, so such a
    state conservatively rejects — resync is an optimization, never a
    requirement.  A value ``marshal`` refuses falls back to a
    per-element type and zero-sign check.
    """
    if a != b:
        return False
    try:
        return _marshal_dumps(a, 2) == _marshal_dumps(b, 2)
    except ValueError:
        pass
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        if type(x) is float and x == 0.0 and copysign(1.0, x) != copysign(1.0, y):
            return False
    return True


class WarmFrame:
    """One suspended (or innermost) call frame inside a ladder rung.

    ``call_k`` is the 0-based index of the pending non-declaration call
    inside block ``bi`` for suspended frames — blocks are straight-line, so
    it identifies the exact call instruction to resume after.  ``None``
    marks the innermost frame, which re-enters the dispatch loop at ``bi``
    (that block has not been charged or profiled yet: captures happen at
    the loop top, before the block runs).
    """

    __slots__ = ("cfi", "bi", "call_k", "regs", "sp0", "rec_mine", "rec_pinned")

    def __init__(
        self,
        cfi: int,
        bi: int,
        call_k: Optional[int],
        regs: List,
        sp0: int,
        rec_mine=None,
        rec_pinned: bool = False,
    ):
        self.cfi = cfi
        self.bi = bi
        self.call_k = call_k
        self.regs = regs
        self.sp0 = sp0
        #: the frame's live recovery Snapshot at capture time (or None);
        #: restored as a fresh copy so trials never mutate the ladder
        self.rec_mine = rec_mine
        #: ``rec_mine.pinned`` at the capture instant — ``pin()`` mutates
        #: snapshots after the fact, so the flag must be frozen here
        self.rec_pinned = rec_pinned

    def __repr__(self) -> str:
        return f"<WarmFrame cfi={self.cfi} bi={self.bi} call_k={self.call_k}>"


class WarmSnapshot:
    """One rung of the ladder: a complete mid-run interpreter state."""

    __slots__ = (
        "index", "cycles", "cells", "sp", "frames", "out_log", "profile",
        "rec_snapshots", "rec_last_cycles", "live",
    )

    def __init__(
        self,
        index: int,
        cycles: int,
        cells: List,
        sp: int,
        frames: Tuple[WarmFrame, ...],
        out_log: List,
        profile: List[int],
        rec_snapshots: int = 0,
        rec_last_cycles: Optional[int] = None,
    ):
        self.index = index
        self.cycles = cycles
        self.cells = cells
        self.sp = sp
        #: outermost frame first; the last entry is the innermost frame
        self.frames = frames
        self.out_log = out_log
        #: per-block execution counts at the capture instant — the source
        #: of truth for re-deriving injector occurrence counters
        self.profile = profile
        #: recovery telemetry counters at capture (golden runs under a
        #: policy snapshot too, and the counts must replay exactly)
        self.rec_snapshots = rec_snapshots
        self.rec_last_cycles = rec_last_cycles
        #: per frame, the slots a resync compares and the rung's values in
        #: them, projected on first use (see ``Interpreter._golden_live``)
        self.live: Optional[Tuple[Tuple[Tuple[int, ...], List], ...]] = None

    def __repr__(self) -> str:
        return (
            f"<WarmSnapshot #{self.index} cycles={self.cycles} "
            f"frames={len(self.frames)}>"
        )


class WarmStart:
    """Per-trial warm-start instruction handed to ``Interpreter.run``.

    ``snapshot`` is the rung to restore (``None`` = start cold — the
    injection point precedes the first rung); ``inj_seen`` is the number
    of dynamic executions of the injected instruction that already happened
    before the rung, so the occurrence counter continues exactly where the
    cold run would be.  ``resync`` arms the golden-resync fast path (safe
    only without a recovery policy, whose telemetry must replay in full).
    """

    __slots__ = ("ladder", "snapshot", "inj_seen", "resync")

    def __init__(
        self,
        ladder: "SnapshotLadder",
        snapshot: Optional[WarmSnapshot],
        inj_seen: int = 0,
        resync: bool = True,
    ):
        self.ladder = ladder
        self.snapshot = snapshot
        self.inj_seen = inj_seen
        self.resync = resync


class SnapshotLadder:
    """All rungs of one golden run, plus fault-site planning."""

    def __init__(
        self,
        snapshots: List[WarmSnapshot],
        stride: int,
        golden_cycles: int,
        golden_value,
        entry: str = "main",
    ):
        #: rungs in capture order (strictly increasing cycles)
        self.snapshots = snapshots
        self.stride = stride
        self.golden_cycles = golden_cycles
        self.golden_value = golden_value
        self.entry = entry
        # position caches for plan_site's occurrence accounting
        self._inst_pos: Dict[int, int] = {}
        self._call_pos: Dict[Tuple[int, int], List[int]] = {}
        # plan_site acceleration: per-gid profile columns (monotone, so
        # rung selection bisects instead of scanning), the deepest frame
        # stack in the ladder (bounds the over-count correction), and a
        # memo keyed by (instruction, occurrence) — the bucketing pass in
        # the campaign engine plans every pending site up front, so the
        # per-trial plan in run_site becomes a dict hit.
        self._profile_col: Dict[int, List[int]] = {}
        self._max_depth = max((len(s.frames) for s in snapshots), default=0)
        self._cycles = [s.cycles for s in snapshots]
        self._plan_memo: Dict[Tuple[int, int], Tuple[Optional[WarmSnapshot], int]] = {}

    def __len__(self) -> int:
        return len(self.snapshots)

    def signature(self) -> str:
        """Stable identity for campaign fingerprints."""
        return f"warm1|{self.stride}"

    # -- fault-site planning ----------------------------------------------------

    def _inst_position(self, cm, inst) -> int:
        pos = self._inst_pos.get(id(inst))
        if pos is None:
            # Index the whole block in one pass: fault sites hit most
            # instructions of a hot block eventually, and a per-site scan
            # of a large block costs more than this entire map.
            for i, candidate in enumerate(inst.parent.instructions):
                self._inst_pos.setdefault(id(candidate), i)
            pos = self._inst_pos.get(id(inst), 0)
        return pos

    def _call_positions(self, cm, cfi: int, bi: int) -> List[int]:
        key = (cfi, bi)
        positions = self._call_pos.get(key)
        if positions is None:
            block = cm.cfuncs[cfi].fn.blocks[bi]
            positions = [
                i
                for i, inst in enumerate(block.instructions)
                if isinstance(inst, CallInst) and not inst.callee.is_declaration
            ]
            self._call_pos[key] = positions
        return positions

    def plan_site(
        self, cm, site, fire: Optional[int] = None
    ) -> Tuple[Optional[WarmSnapshot], int]:
        """The latest rung strictly before ``site``'s injection point.

        Returns ``(snapshot, inj_seen)`` where ``inj_seen`` is how many
        dynamic executions of the site's instruction precede the rung, or
        ``(None, 0)`` when the injection fires before the first rung.

        With ``fire``, the golden cycle of a tripping trial's flip block
        instance (see ``Interpreter.run``), the rung is the latest one
        captured before that cycle.  Such a rung never holds the flip
        instance suspended (it was charged before the rung, so at or
        before the rung's count), and the trip re-derives the occurrence
        count, so ``inj_seen`` is 0.

        Occurrence accounting: a rung's ``profile[gid]`` counts *entered*
        block instances, which over-counts executions of the target
        instruction by one for each suspended frame whose pending call
        sits at-or-before the instruction within the same block (the block
        was charged and profiled at entry, but execution stopped at the
        call).  The innermost frame's about-to-run block is *not* yet
        profiled, so it needs no correction.
        """
        if fire is not None:
            j = bisect_left(self._cycles, fire)
            return (self.snapshots[j - 1] if j else None), 0
        inst = site.instruction
        occurrence = site.occurrence
        memo_key = (id(inst), occurrence)
        plan = self._plan_memo.get(memo_key)
        if plan is not None:
            return plan
        record = cm.record_for(inst)
        gid = record.block_gid
        pos = self._inst_position(cm, inst)
        snapshots = self.snapshots

        def corrected(snap: WarmSnapshot) -> int:
            seen = snap.profile[gid]
            # Deduct suspended instances that had not reached the
            # instruction yet when the rung was captured — unconditionally:
            # ``seen`` doubles as the trial's resumed occurrence counter,
            # so an uncorrected over-count would fire the flip one dynamic
            # instance early even when eligibility is not in question.
            for wf in snap.frames:
                if (
                    wf.call_k is not None
                    and wf.cfi == record.cfi
                    and wf.bi == record.block_index
                ):
                    calls = self._call_positions(cm, wf.cfi, wf.bi)
                    if calls[wf.call_k] <= pos:
                        seen -= 1
            return seen

        # The raw profile column is nondecreasing over rungs, so the
        # latest rung with corrected count < occurrence sits at the bisect
        # point or within the correction band above it (the correction
        # only ever subtracts, by at most the frame-stack depth).
        col = self._profile_col.get(gid)
        if col is None:
            col = [s.profile[gid] for s in snapshots]
            self._profile_col[gid] = col
        lo = bisect_left(col, occurrence)
        plan = (None, 0)
        ceiling = occurrence + self._max_depth
        j = lo
        while j < len(col) and col[j] < ceiling:
            seen = corrected(snapshots[j])
            if seen < occurrence:
                plan = (snapshots[j], seen)
            j += 1
        if plan[0] is None and lo > 0:
            snap = snapshots[lo - 1]
            plan = (snap, corrected(snap))
        self._plan_memo[memo_key] = plan
        return plan

    def __repr__(self) -> str:
        return (
            f"<SnapshotLadder rungs={len(self.snapshots)} "
            f"stride={self.stride} golden_cycles={self.golden_cycles}>"
        )


class _TrackState:
    """Mutable per-run tracking used by capture and resync modes.

    ``frames`` mirrors the live call stack as mutable records
    ``[cfi, bi, calls_made, frame, sp0, rec_mine]`` so a capture (or a
    resync comparison) can reconstruct every suspended frame without
    slowing the non-tracked hot loop.
    """

    __slots__ = (
        "frames", "capturing", "stride", "next_capture", "ladder",
        "resync_pts", "ri", "next_resync", "primed", "fails",
    )

    _NEVER = 1 << 62

    #: Consecutive missed rendezvous (failed compare or overshot rung)
    #: after which a trial stops attempting golden resync.  A trial whose
    #: state has stayed divergent across this many rungs almost never
    #: reconverges bit-exactly later, and each further attempt costs a
    #: full-state compare — giving up only forfeits a fast path, never
    #: correctness (the suffix still executes to its cold-identical end).
    #: Four misses is the measured sweet spot on the fig8 workloads: the
    #: resync catch count saturates there while every extra tolerated miss
    #: keeps the resync loop (and its compares) alive longer.  With that
    #: loop running lean region code between rungs and rungs compared only
    #: at their own cycle counts, 8 misses caught more resyncs (fft 580
    #: trials: 91 -> 100 at seed 0, 116 -> 121 at seed 1; hpccg 200
    #: trials: 14 both) but were no faster: best of 6 separate campaigns,
    #: 0.800 vs 0.897 s (fft, seed 0), 0.708 vs 0.776 s (fft, seed 1),
    #: 1.099 vs 0.998 s (hpccg), on a 2-vCPU VM whose runs spread by up to
    #: 75%.
    MAX_RESYNC_FAILS = 4

    def __init__(self):
        self.frames: List[list] = []
        # capture mode (golden run)
        self.capturing = False
        self.stride = 0
        self.next_capture = self._NEVER
        self.ladder: Optional[List[WarmSnapshot]] = None
        # resync mode (warm trials without recovery)
        self.resync_pts: Optional[List[WarmSnapshot]] = None
        self.ri = 0
        self.next_resync = 0
        self.primed = False  # True once the first post-flip check targeted a rung
        self.fails = 0

    def capture(self, interp) -> None:
        """Record one rung from the live interpreter state."""
        frames = self.frames
        last = len(frames) - 1
        wframes = []
        for i, r in enumerate(frames):
            mine = r[5]
            wframes.append(
                WarmFrame(
                    r[0],
                    r[1],
                    # suspended frames resume after their pending call
                    # (calls_made is 1-based, call_k is 0-based); the
                    # innermost frame re-enters its loop at bi
                    (r[2] - 1) if i < last else None,
                    list(r[3]),
                    r[4],
                    mine,
                    mine.pinned if mine is not None else False,
                )
            )
        rec = interp.rec
        snap = WarmSnapshot(
            index=len(self.ladder),
            cycles=interp.cycles,
            cells=list(interp.cells),
            sp=interp.sp,
            frames=tuple(wframes),
            out_log=list(interp.output_log),
            profile=list(map(len, interp.prof)),
            rec_snapshots=rec.telemetry.snapshots if rec is not None else 0,
            rec_last_cycles=rec.last_snapshot_cycles if rec is not None else None,
        )
        self.ladder.append(snap)
        self.next_capture = interp.cycles + self.stride
