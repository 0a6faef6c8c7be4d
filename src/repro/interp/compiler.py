"""Compilation of repro IR to Python closures.

Executing a tree-walking interpreter per instruction would be far too slow
for statistical fault-injection campaigns (tens of thousands of program
runs), so the interpreter *compiles* each basic block to one Python function
(``exec``-generated source).  The interpreter then just drives a
block-dispatch loop; everything inside a block runs as straight-line Python.

Loop nests get a second, faster form.  Each outermost natural loop also
compiles to one *region* function that runs its member blocks in a local
``while`` loop and keeps the SSA values it touches, and its cycle count, in
Python locals (``r12`` instead of ``f[12]``; lean code lets a phi share
one local with the values that feed it, see :class:`~repro.interp.regalloc.Locals`).  Each
member is emitted at its immediate dominator: inside the branch arm that
enters it, or, for an if/else merge, right after that ``if``/``else``,
which its arms fall into.
Only loop headers cost a dispatch test on the local block index (see
:meth:`_Compiler._gen_dispatch`).  It loads the values it needs from the
frame list at entry and, before each exiting ``return``, writes back the
ones block-by-block execution may read from there (one rule, by slot
liveness, for every form; see :class:`~repro.interp.regalloc.Frame`).  A
function therefore has three dispatch tables:

* ``block_fns`` — one function per block, the frame list coherent at every
  block boundary.  Used by the tracked dispatch loop while it recovers or
  captures a ladder, by warm resume, at a resync-armed trial's events
  (the trip and the rungs) and by the block profiler.
* ``region_fns`` — ``block_fns`` with the entry of each block a region
  dispatches on (its loop headers, see :meth:`_Compiler._dispatch_targets`)
  replaced by the region function started there.  Used by the lean
  dispatch loop, and by a resync-armed warm trial between its events:
  lean code leaves through a *deopt exit* at its last test point before
  the next event (see :meth:`_Compiler._gen_region`).
* ``profiled_fns`` — the same with the *profiled* region functions, the
  lean code plus a profile bump per block, built on first use
  (:meth:`CompiledModule.profiled_tables`).  Used by the lean dispatch
  loop of profiled runs.

A run's observable results (status, cycle count, profile, memory, output,
the cycle at which it trips, traps or hangs) are identical whichever table
executes it.  Block functions and the injectable region forms charge
each block's cycles at its top, in block order, and block functions test
the budget and bump the profile at every block.  Region
code tests the budget only where a static bound says a budget could run
out (see :meth:`_Compiler._plan_region`) and, near one, steps that
stretch on the per-block table; lean region code bumps no profile, and
profiled runs dispatch through ``profiled_fns``.  Lean and profiled
region code compute each value once: they number values within a
member's dominators and compute each loop's invariants, those that cannot
raise, once per entry into the loop instead of every iteration (see
:meth:`_Compiler._gen_region`).  They also charge per stretch: a block
whose instructions cannot raise adds its cycles to a static pending
charge, which the code adds to the count only right before something
that can see it (see :meth:`_Compiler._gen_member`).  They leave SSA
without the moves they do not need: copies read their source, pure
values read once are folded into their reader, coalesced phis move
nothing and the moves left are single assignments (see
:class:`~repro.interp.regalloc.Locals`).  And they run each innermost
counted loop as ``for i in range(i, b)`` under one budget test per
entry into it, before its checked loop (see :mod:`~repro.interp.counted`).

Semantics implemented exactly:

* two's-complement wrap-around for ``iN`` arithmetic,
* C-style truncating ``sdiv``/``srem`` with a trap on division by zero,
* IEEE-754 double math (Python floats), with ``fdiv``-by-zero producing
  ±inf/NaN instead of a Python exception,
* cell-addressed memory with bounds and validity checks (traps model the
  architecture-level symptoms of the paper's outcome taxonomy),
* per-block cycle charging and a cycle budget (hang detection),
* optional per-block execution profiling (used to pick dynamic fault sites),
* optional fault injection into the result of a chosen dynamic occurrence
  of a chosen instruction (the FlipIt substitute's engine room).

An injection is a fault model's ``InjectionSpec`` and takes one of two
epilogues: ``once`` corrupts the sampled occurrence through the model's
corrupter (single-shot models, the paper's single-bit flip among them),
``multi`` asks the model's firing predicate at every execution
(multi-shot models).  Fault injection has two routes, both through
*injectable variants*: a block or region compiled once per epilogue with
one after every value-producing instruction, each behind a guard
``if _s == <slot>:`` on ``state.inj_slot``, so every site in the block or
region shares one variant (a multi-shot model's variant holds its one
site's epilogue).  A single-shot campaign trial *trips*: until its flip
the trial is the golden run, so the plain tables run up to the flip's
golden cycle (``state.rbudget``), lean region code leaves through a
deopt exit at the last test point before the flip and steps block by
block to the flip block, and ``Interpreter.step`` runs that one block
instance in its injectable variant before the plain tables take over
again.  Every other injected run *counts*: the injected function dispatches through a
table holding the variant of the block or region with the site, which
counts the site's executions in ``state.inj_seen``.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import count
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    AtomicRMWInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiNode,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import Module
from ..ir.types import Type
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .costmodel import CostModel
from .counted import Counted, counted_loop, guard, innermost_loops, longest
from .errors import InterpreterBug
from .regalloc import Frame, Live, Locals, live_after, liveness, without_profile
from .runtime import EXEC_GLOBALS


# -- bit-flip helpers (the transient-1bit model's corrupters) ------------------

def flip_int(value: int, bit: int, bits: int) -> int:
    """Flip one bit of a two's-complement integer of the given width."""
    mask = (1 << bits) - 1
    u = (value & mask) ^ (1 << (bit % bits))
    if bits > 1 and u >= 1 << (bits - 1):
        u -= 1 << bits
    return u


def flip_f64(value: float, bit: int) -> float:
    """Flip one bit of an IEEE-754 double."""
    try:
        (u,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    except (OverflowError, ValueError):
        u = 0
    u ^= 1 << (bit % 64)
    (result,) = struct.unpack("<d", struct.pack("<Q", u))
    return result


def flip_bool(value, bit: int):
    return not value


def _crossed(cycles: int, offsets: Tuple[int, ...], budget: int) -> int:
    """The count at the first of a stretch's deferred hang tests that
    passes ``budget``: ``cycles`` plus the first of ``offsets`` (each
    test's count less ``cycles``, in charge order) that does.  Called
    from numbered region code once the last one has (see
    :meth:`_Numbering.settle`)."""
    return next(cycles + o for o in offsets if cycles + o > budget)


def _unbump(prof: List, cycles: int, gids: Tuple[int, ...]) -> None:
    """Take back the profile entries that the blocks ``gids`` of a
    stretch bumped at or after ``cycles``, its hang count: their hang
    tests ran after the bumps, where block functions test before.  Each
    block bumps once in a stretch, every earlier entry of its gid is
    below the stretch's and later blocks bump more, so an entry at or
    above ``cycles`` is one the per-block table never makes."""
    for gid in gids:
        entries = prof[gid]
        if entries and entries[-1] >= cycles:
            entries.pop()


EXEC_GLOBALS = dict(EXEC_GLOBALS, _crossed=_crossed, _unbump=_unbump)


class CompiledBlock:
    """One block: its compiled function and metadata for injection."""

    __slots__ = ("index", "gid", "fn", "cost", "source", "block")

    def __init__(self, index: int, gid: int, fn: Callable, cost: int, source: str, block: BasicBlock):
        self.index = index
        self.gid = gid
        self.fn = fn
        self.cost = cost
        self.source = source
        self.block = block


class CompiledFunction:
    """One function: frame size, compiled blocks and its dispatch tables."""

    __slots__ = (
        "index", "name", "fn", "nslots", "nargs", "blocks", "block_fns",
        "region_fns", "region_of", "profiled_fns", "costs",
    )

    def __init__(self, index: int, fn: Function):
        self.index = index
        self.name = fn.name
        self.fn = fn
        self.nslots = 0
        self.nargs = len(fn.args)
        self.blocks: List[CompiledBlock] = []
        self.block_fns: List[Callable] = []
        #: ``block_fns`` with the entry of every block a region dispatches
        #: on replaced by the region function started there (the lean
        #: dispatch loop's table)
        self.region_fns: List[Callable] = []
        #: member block index -> header block index of its region
        self.region_of: Dict[int, int] = {}
        #: the profiled dispatch table, None until a profiled run needs it
        self.profiled_fns: Optional[List[Callable]] = None
        #: per-block cycle cost, indexed like ``block_fns``
        self.costs: List[int] = []


class Region:
    """One loop region: its member blocks in dispatch order (innermost
    first), where its code places them (the blocks it is entered at, i.e.
    the dispatch targets, header included, and the joins; see
    :meth:`_Compiler._dispatch_targets`), the slots its code assigns, its
    test points with their bounds (see :meth:`_Compiler._plan_region`),
    and its natural loops."""

    __slots__ = (
        "header", "order", "entries", "joins", "written", "bounds", "loops", "counted",
    )

    def __init__(
        self, header: int, order: List[int], entries: List[int],
        joins: Dict[int, int], written: FrozenSet[int], bounds: Dict[int, int],
        loops: List[Tuple[int, List[int]]], counted: Dict[int, Counted],
    ):
        self.header = header
        self.order = order
        self.entries = entries
        self.joins = joins
        #: the slots of the members' values, phis included
        self.written = written
        #: test point -> the largest charge region code can add after the
        #: point's own charge before the next test point, back edge or exit
        self.bounds = bounds
        #: (header, members in reverse postorder) of every natural loop in
        #: the region, each after the loops that hold it
        self.loops = loops
        #: header -> its counted loop, for the innermost loops that are
        #: (see :mod:`~repro.interp.counted`)
        self.counted = counted


class InstructionRecord:
    """Where a value-producing instruction lives in compiled form."""

    __slots__ = ("inst", "cfi", "block_index", "block_gid", "slot")

    def __init__(self, inst: Instruction, cfi: int, block_index: int, block_gid: int, slot: int):
        self.inst = inst
        self.cfi = cfi
        self.block_index = block_index
        self.block_gid = block_gid
        self.slot = slot


class CompiledModule:
    """A fully compiled module plus its memory layout."""

    def __init__(self, module: Module, cost_model: Optional[CostModel] = None):
        self.module = module
        self.cost_model = cost_model or CostModel()
        self.cfuncs: List[CompiledFunction] = []
        self.func_index: Dict[str, int] = {}
        self.records: Dict[int, InstructionRecord] = {}  # id(inst) -> record
        self.block_gids: Dict[int, int] = {}  # id(block) -> gid
        self.total_blocks = 0
        #: detection context per static check call, indexed by the site id
        #: baked into the generated ``state.check_failed(<site>)``:
        #: (function name, block name, intrinsic name, checked value name)
        self.check_sites: List[Tuple[str, str, str, str]] = []
        # memory layout
        self.global_addr: Dict[str, int] = {}
        self.global_template: List = []  # initial cells incl. guards (None = guard)
        self.stack_base = 0
        #: (cfi, block, call index or None) -> what :meth:`live_slots` says
        self._live_slots: Dict[Tuple[int, int, Optional[int]], Tuple[int, ...]] = {}
        self._compiler = _Compiler(self)
        self._layout_globals()
        self._compile_all()

    # -- memory layout --------------------------------------------------------

    GUARD = 8  # guard cells between regions

    def _layout_globals(self) -> None:
        cells: List = [None] * self.GUARD
        for gv in self.module.globals.values():
            self.global_addr[gv.name] = len(cells)
            cells.extend(gv.initial_cells())
            cells.extend([None] * self.GUARD)
        self.global_template = cells
        self.stack_base = len(cells)

    # -- compilation ------------------------------------------------------------

    def _compile_all(self) -> None:
        """Compile in two phases: every function's slots, instruction
        records, block gids and leaf verdict first, then code, so a call
        site can inline a leaf defined below it.  Every function's block
        functions compile before any region, which numbers check sites in
        block order whichever region inlines a leaf's check first."""
        defined = self.module.defined_functions()
        for i, fn in enumerate(defined):
            cf = CompiledFunction(i, fn)
            self.cfuncs.append(cf)
            self.func_index[fn.name] = i
        for cf in self.cfuncs:
            self._compiler.prepare_function(cf)
        for cf in self.cfuncs:
            self._compiler.compile_blocks(cf)
        for cf in self.cfuncs:
            self._compiler.compile_regions(cf)

    def get_function_index(self, name: str) -> int:
        try:
            return self.func_index[name]
        except KeyError:
            raise KeyError(f"no defined function named {name}") from None

    def record_for(self, inst: Instruction) -> InstructionRecord:
        try:
            return self.records[id(inst)]
        except KeyError:
            raise KeyError(f"{inst!r} is not a compiled value-producing instruction") from None

    def live_slots(
        self, cfi: int, bi: int, call_k: Optional[int] = None
    ) -> Tuple[int, ...]:
        """The slots of a frame of function ``cfi`` that block-by-block
        execution may still read before assigning them: at block ``bi``'s
        top (``call_k`` None), or, suspended in the ``call_k``-th call of
        the block to a defined function (0-based), after that call (see
        :func:`~repro.interp.regalloc.live_after`).  A golden resync
        compares frames on these slots only: the others are assigned
        before they are read on every path, so they cannot change the
        rest of the run."""
        key = (cfi, bi, call_k)
        got = self._live_slots.get(key)
        if got is None:
            cf = self.cfuncs[cfi]
            live = self._compiler._live(cf)
            if call_k is None:
                slots = live.top[bi]
            else:
                call = _defined_calls(cf.fn.blocks[bi].instructions)[call_k]
                slots = live_after(live, call, self._compiler._slot_of[cfi], bi)
            got = self._live_slots[key] = tuple(sorted(slots))
        return got

    def injected_block_fn(
        self, inst: Instruction, mode: str = "once"
    ) -> Tuple[int, int, Callable]:
        """Compile (or fetch) the injectable variant of the block holding
        ``inst``, shared by every site in that block (the epilogue of the
        site ``state.inj_slot`` names fires; see :func:`_inject`).
        Returns (cfi, block_index, block_fn).  ``mode`` picks the
        injection epilogue: ``"once"`` (one firing through
        ``state.inj_corrupt``) or ``"multi"`` (multi-shot arming via
        ``state.inj_fire``)."""
        record = self.record_for(inst)
        cf = self.cfuncs[record.cfi]
        inject = _inject(record, mode)
        fn = self._compiler.compile_block(cf, record.block_index, inject)
        return record.cfi, record.block_index, fn

    def injected_region_entries(
        self, inst: Instruction, mode: str = "once"
    ) -> Tuple[int, Dict[int, Callable]]:
        """The ``region_fns`` counterpart of :meth:`injected_block_fn`.

        Returns (cfi, table index -> fn): the injectable variant of the
        region holding ``inst`` at every block the region is entered at
        (see :meth:`_Compiler.region_entries`), and the injectable block
        at its own index unless the region is entered there: a region's
        deopt exit steps block by block (see :meth:`_Compiler._gen_member`)
        through this table until the next region entry, so the site
        counts there too.
        """
        record = self.record_for(inst)
        cf = self.cfuncs[record.cfi]
        entries: Dict[int, Callable] = {}
        header = cf.region_of.get(record.block_index)
        if header is not None:
            variant = Variant(LEAN.name, inject=_inject(record, mode))
            entries.update(self._compiler.region_entries(cf, header, variant))
        if record.block_index not in entries:
            entries[record.block_index] = self.injected_block_fn(inst, mode)[2]
        return record.cfi, entries

    def _variant_table(self, cf: CompiledFunction, variant: Variant) -> List[Callable]:
        """``cf``'s ``block_fns`` with every block a region dispatches on
        entering ``variant``'s form of the region there (see
        :meth:`_Compiler.region_entries`)."""
        fns = list(cf.block_fns)
        for header in sorted(set(cf.region_of.values())):
            for bi, fn in self._compiler.region_entries(cf, header, variant).items():
                fns[bi] = fn
        return fns

    def profiled_tables(self) -> List[List[Callable]]:
        """Every function's ``profiled_fns`` table, the region table of a
        profiled run, each compiled on first use (golden runs profile,
        trials do not)."""
        for cf in self.cfuncs:
            if cf.profiled_fns is None:
                cf.profiled_fns = self._variant_table(cf, PROFILED)
        return [cf.profiled_fns for cf in self.cfuncs]

    def resume_block_fn(
        self,
        cfi: int,
        bi: int,
        call_k: int,
        inject_after: Optional[Instruction] = None,
        mode: str = "once",
    ) -> Callable:
        """Compile (or fetch) a warm-start *resume* variant of a block.

        The variant skips everything before the block's ``call_k``-th
        non-declaration call (0-based; blocks are straight-line, so the
        k-th dynamic call of a block instance is its k-th static call
        instruction), re-issues that call via ``state.resume_call()``, and
        runs the remainder normally.  No cycles are charged and no profile
        is bumped — the suspended block already paid at entry, before the
        ladder rung was captured.  ``inject_after`` (an instruction of the
        block) arms the injection epilogues of the executed remainder, the
        resumed call included, as :meth:`injected_block_fn` does.
        """
        inject = None
        if inject_after is not None:
            inject = _inject(self.record_for(inject_after), mode)
        return self._compiler.compile_resume(self.cfuncs[cfi], bi, call_k, inject)


#: what an injectable variant injects: (mode, None) for every value
#: behind its slot guard, (mode, slot) for that one slot's value only
Inject = Tuple[str, Optional[int]]


class Variant(NamedTuple):
    """One compiled form of a region: what it adds to the lean code.

    ``name`` starts its functions' filenames; ``bump`` is the line, formatted
    with a block's gid and the count after its charge, that bumps the
    profile (None: no profile); ``inject`` makes it injectable (see
    :func:`_inject`)."""

    name: str
    bump: Optional[str] = None
    inject: Optional[Inject] = None


#: campaign trials' region code
LEAN = Variant("region")
#: the lean code plus a profile bump per block, for ``run(profile=True)``
PROFILED = Variant("profiled region", bump="    _p[{}].append({})")


#: the budget test of an inlined leaf block that tests the hang budget
#: (see :meth:`_Compiler._gen_member`)
_HANG = -1

#: an inlined leaf's straight-line head that ends in its ``ret`` (see
#: :meth:`_Compiler._leaf_prefix`)
_RETURNS = -1


def _inject(record: InstructionRecord, mode: str) -> Inject:
    """The epilogues of the injectable variant for ``record``'s site.
    Variants are shared by every site of a block or region, except for
    multi-shot models: those count every execution of the injected
    region, and the guards on its other values cost them more than the
    compiles sharing saves (cold fft trials under
    ``intermittent:p=0.5,window=4`` ran 5.5% slower with shared variants
    in all 10 alternating rounds; see docs/performance.md)."""
    return mode, record.slot if mode == "multi" else None


def _exec(source: str, filename: str, name: str) -> Callable:
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), EXEC_GLOBALS, namespace)
    return namespace[name]  # type: ignore[return-value]


def _needs_cells(insts) -> bool:
    return any(isinstance(i, (LoadInst, StoreInst, AtomicRMWInst)) for i in insts)


def _real_call(inst: Instruction) -> bool:
    """Whether ``inst`` calls a defined function or an MPI binding: a call
    region code may make through a counted ``state.call`` or
    ``state.mpi_*``, after which its cycle count is unknown (see
    :meth:`_Compiler._gen_counted_call`)."""
    return isinstance(inst, CallInst) and (
        not inst.callee.is_declaration or inst.callee.name.startswith("mpi_")
    )


def _defined_calls(insts) -> List[CallInst]:
    """The calls to defined functions among ``insts``: in one block, the
    pending call a suspended frame's call index counts."""
    return [i for i in insts if isinstance(i, CallInst) and not i.callee.is_declaration]


def _is_leaf(fn: Function) -> bool:
    """Whether region code may inline calls to ``fn``: no call to a
    defined function, no MPI binding and no ``alloca`` (so it never
    touches ``sp``)."""
    for block in fn.blocks:
        for inst in block.instructions:
            if isinstance(inst, AllocaInst) or _real_call(inst):
                return False
    return True


def _pure_shape(inst: Instruction) -> Optional[Tuple]:
    """What besides its operands' values decides ``inst``'s result, or
    None when ``inst`` is not pure (memory, ``alloca``, a call with
    effects).  A pure instruction that traps does so the first time it
    runs, so a second one with equal operands is never reached."""
    if isinstance(inst, CallInst):
        name = inst.callee.name
        return ("call", name) if name in _MATH_INTRINSICS else None
    if isinstance(inst, (BinaryOperator, CastInst, ICmpInst, FCmpInst, GEPInst, SelectInst)):
        return (
            inst.opcode, getattr(inst, "predicate", None), str(inst.type),
            *(str(o.type) for o in inst.operands),
        )
    return None


#: the opcodes no value a register may hold makes raise: an int, a float
#: or a bool, since a wild store puts any of them in any cell.  Shifts and
#: bitwise ops raise on a float, ``sdiv``/``srem``/``fptosi`` trap, and so
#: do masking casts, loads and calls.
_HOISTABLE = frozenset(
    {"add", "sub", "mul", "fadd", "fsub", "fmul", "icmp", "fcmp", "gep", "select"}
)


def _hoistable(inst: Instruction) -> bool:
    """Whether region code may compute ``inst`` at a loop's entry, where
    its block may never run (see :meth:`_Compiler._plan_hoists`)."""
    return inst.opcode in _HOISTABLE


def _settles(inst: Instruction) -> bool:
    """Whether numbered region code adds its pending charge to ``_c``
    before ``inst``: ``inst`` may raise or read the count (it is not
    :func:`_hoistable`), and it is no branch, ``ret`` or call that can be
    real (such a call reads ``_c`` plus the pending charge itself; see
    :meth:`_Compiler._gen_counted_call`)."""
    return not (
        _hoistable(inst) or _real_call(inst) or isinstance(inst, (BranchInst, RetInst))
    )


#: numbered region code's charge state (see :class:`_Numbering`): the
#: pending charge and the hang tests it owes, each (offset, block gid)
Charge = Tuple[int, Tuple[Tuple[int, int], ...]]


def _charged(block: BasicBlock, cost: int, top: Charge, gid: Optional[int]) -> Charge:
    """The charge state numbered code leaves ``block`` with, entered with
    ``top``: its cost added, a hang test owed when it has a ``gid`` (an
    inlined leaf block), everything settled at each instruction that
    :func:`_settles` and after each call that can be real."""
    pending, hangs = top
    pending += cost
    if gid is not None:
        hangs += ((pending, gid),)
    for inst in block.instructions:
        if not isinstance(inst, PhiNode) and (_settles(inst) or _real_call(inst)):
            pending, hangs = 0, ()
    return pending, hangs


def _merge(arms: List[Charge]) -> Charge:
    """The charge state of a join: the arms' own when they agree, else the
    least pending charge of any arm, with every hang test made."""
    first = arms[0]
    if all(arm == first for arm in arms):
        return first
    return min(pending for pending, _ in arms), ()


class _Leaf(NamedTuple):
    """What every call site inlining one leaf shares (see
    :meth:`_Compiler._gen_inlined_call`)."""

    #: its blocks' :meth:`_Compiler._dispatch_targets` from its entry
    placement: Tuple[List[int], Dict[int, int]]
    #: the ``straight`` of :meth:`_Compiler._leaf_prefix`
    prefix: Optional[int]
    #: its costliest path, None when it loops
    cost: Optional[int]
    #: its counted loops, by header
    counted: Dict[int, Counted]


def _plus(n: int) -> str:
    """``_c`` plus the static amount ``n``, as generated code reads it."""
    return "_c" if n == 0 else f"_c + {n}" if n > 0 else f"_c - {-n}"


class _Hoists(NamedTuple):
    """The loop invariants of a region's numbered forms (see
    :meth:`_Compiler._plan_hoists`)."""

    #: loop header -> (the loop's members, the lines computing its
    #: invariants), each loop after the loops that hold it
    loops: Dict[int, Tuple[FrozenSet[int], List[str]]]
    #: dispatch target -> the facts its numbering starts from
    seeds: Dict[int, "_Facts"]


#: (icmp predicate, branch direction) -> the operand a branch arm knows
#: to be below the other one
_BELOW = {("slt", True): 0, ("sgt", True): 1, ("sge", False): 0, ("sle", False): 1}

_MISSING = object()


class _Facts(dict):
    """What numbered code knows (see :class:`_Numbering`): one dict whose
    writes are logged, so a scope takes back what it learned
    (:meth:`undo`) and a read costs one lookup however deep the scopes."""

    __slots__ = ("log",)

    def __init__(self, base=()) -> None:
        super().__init__(base)
        self.log: List[Tuple[object, object]] = []

    def __setitem__(self, key, value) -> None:
        self.log.append((key, self.get(key, _MISSING)))
        dict.__setitem__(self, key, value)

    def undo(self, mark: int) -> None:
        """Take back every write after the first ``mark`` of the log."""
        log = self.log
        while len(log) > mark:
            key, old = log.pop()
            if old is _MISSING:
                dict.__delitem__(self, key)
            else:
                dict.__setitem__(self, key, old)

    @contextmanager
    def scope(self) -> Iterator[None]:
        mark = len(self.log)
        try:
            yield
        finally:
            self.undo(mark)


class _Numbering:
    """Value numbers for the lean and profiled forms of one region (see
    :meth:`_Compiler._gen_region`): which rendered operands hold the same
    value, and what region code already knows about them and memory.

    ``facts`` (:class:`_Facts`) is scoped by emission nesting, which is
    the dominator tree: :meth:`arm` opens a scope per branch arm and
    inlined call, so what an arm learns ends with it, and :meth:`barrier`
    starts afresh at every dispatch target, where the loop carries new
    values in, from only the facts of the loop invariants hoisted for
    it.  It maps

    * a rendered operand (``r12``, ``q0_3``, ``1``) to its number, a
      fresh one the first time the chain reads it;
    * ``(shape, *operand numbers)`` of a pure instruction
      (:func:`_pure_shape`) to (its number, the register computing it);
    * ``("load", address number, stores)`` to (number, register);
    * ``("addr", address number, calls)`` to True once an access to the
      address passed its checks: the cell is in the arena and no guard,
      which only a call can change;
    * ``("cmp", number)`` of an ``icmp`` to (predicate, operand numbers,
      operand type), and ``("below", number, type)`` to True in an arm
      whose branch proves the value is below another one of its type.

    ``stores`` (stores and calls) and ``calls`` count the kills so far;
    they are not scoped, so one anywhere emitted in between, an earlier
    arm included, hides the memory facts taken before it.

    The same forms defer cycle charges (see :meth:`_Compiler._gen_member`).
    ``pending`` is the charge the code emitted so far has not added to
    ``_c`` (``_c + pending`` is the count) and ``hangs`` the hang tests of
    inlined leaf blocks it has not made, each as its count less ``_c`` and
    the block's gid.  Both follow the same scopes: an arm starts from the
    state of its branch, a dispatch target from nothing pending.
    ``profiled`` says the form bumps the profile.
    """

    def __init__(self, profiled: bool = False, locals: Optional["Locals"] = None) -> None:
        self.profiled = profiled
        #: where the form keeps each value (see :class:`~repro.interp.regalloc.Locals`)
        self.locals = locals
        #: members emitted so far (see :meth:`_Compiler._gen_terminator`)
        self.emitted = 0
        #: the next instruction is a counted call too, so the one being
        #: emitted leaves ``_c`` None (see :meth:`_Compiler._gen_counted_call`)
        self.chained = False
        #: ``_c`` is None, ``state.cycles`` holds the count
        self.uncounted = False
        #: the counted loop whose fast copy is being emitted (see
        #: :mod:`~repro.interp.counted`)
        self.fast: Optional[Counted] = None
        self.facts = _Facts()
        self.seed = _Facts()
        self.numbers = 0
        self.stores = 0
        self.calls = 0
        self.pending = 0
        self.hangs: Tuple[Tuple[int, int], ...] = ()

    @property
    def charge(self) -> Charge:
        return self.pending, self.hangs

    def settle(self, out, to: Charge = (0, ())) -> None:
        """Bring the charge state to ``to`` through ``out``: add the
        difference to ``_c`` and, unless ``to`` keeps them, make the owed
        hang tests.  A hang reports the first owed test that the count
        passes (:func:`_crossed`), the block the per-block table hangs at,
        and a profiled form takes back the entries from there on
        (:func:`_unbump`)."""
        pending, hangs = to
        add = self.pending - pending
        if add < 0 or (hangs and hangs != self.hangs):
            raise InterpreterBug(f"cannot settle {self.charge} to {to}")
        if add:
            out(f"    _c += {add}")
        if self.hangs != hangs:
            offsets = tuple(h - add for h, _ in self.hangs)
            at = _plus(offsets[-1])
            out(f"    if {at} > _bud and {at} > state.budget:")
            if offsets != (0,):
                out(f"        _c = _crossed(_c, {offsets}, state.budget)")
            if self.profiled:
                gids = tuple(gid for _, gid in self.hangs)
                out(f"        _unbump(_p, _c, {gids})")
            out("        state.hang()")
        self.pending, self.hangs = to

    def called(self) -> None:
        """After a call that can be real: it killed every memory fact, and
        ``_c`` holds the count its callee left."""
        self.kill(call=True)
        self.pending, self.hangs = 0, ()

    def of(self, operand: str) -> int:
        number = self.facts.get(operand)
        return self.bind(operand) if number is None else number

    def bind(self, reg: str, number: Optional[int] = None) -> int:
        """``reg`` now holds ``number``, or a value nothing else holds."""
        if number is None:
            self.numbers += 1
            number = self.numbers
        self.facts[reg] = number
        return number

    def held(self, key: Tuple) -> Optional[str]:
        """The register that computed ``key``'s value, if it still
        holds it."""
        hit = self.facts.get(key)
        if hit is not None and self.facts.get(hit[1]) == hit[0]:
            return hit[1]
        return None

    def define(self, key: Tuple, reg: str) -> int:
        number = self.bind(reg)
        self.facts[key] = (number, reg)
        return number

    def kill(self, call: bool) -> None:
        self.stores += 1
        self.calls += call

    @contextmanager
    def arm(self, cond: Optional[str] = None, truth: bool = True) -> Iterator[None]:
        """A scope, for the arm of ``if cond:`` that ``truth`` takes when
        ``cond`` is given."""
        cmp = self.facts.get(("cmp", self.of(cond))) if cond is not None else None
        charge = self.charge
        mark = len(self.facts.log)
        if cmp is not None and (cmp[0], truth) in _BELOW:
            below = cmp[1 + _BELOW[(cmp[0], truth)]]
            self.facts[("below", below, cmp[3])] = True
        try:
            yield
        finally:
            self.facts.undo(mark)
            self.pending, self.hangs = charge

    @contextmanager
    def barrier(self, seed: Optional[_Facts] = None) -> Iterator[None]:
        """Forget every fact but ``seed``'s, with nothing pending: a region
        passes the hoisted facts of the loops that hold the dispatch
        target (see :meth:`_Compiler._plan_hoists`), an inlined leaf's
        dispatch keeps the facts its caller's target started with."""
        saved = self.facts, self.seed, self.charge
        if seed is not None:
            self.seed = seed
        self.facts = _Facts(self.seed)
        self.pending, self.hangs = 0, ()
        try:
            yield
        finally:
            self.facts, self.seed, (self.pending, self.hangs) = saved


def _arm(vn: Optional[_Numbering], cond: Optional[str] = None, truth: bool = True):
    return nullcontext() if vn is None else vn.arm(cond, truth)


def _discard(line: str) -> None:
    """An ``emit`` for a value numbered but not emitted."""


class _Compiler:
    """Generates and ``exec``-compiles Python source for blocks and regions."""

    def __init__(self, cm: CompiledModule):
        self.cm = cm
        self._slot_of: Dict[int, Dict[int, int]] = {}  # cfi -> id(value) -> slot
        #: cfi -> id(value) -> frame-list operand (``f[12]``)
        self._frame_regs: Dict[int, Dict[int, str]] = {}
        #: cfi -> id(value) -> Python local (``r12``), for region bodies
        self._local_regs: Dict[int, Dict[int, str]] = {}
        self._block_index: Dict[int, Dict[int, int]] = {}  # cfi -> id(block) -> index
        self._regions: Dict[Tuple[int, int], Region] = {}  # (cfi, header) -> region
        #: (cfi, block, inject) -> injectable block variant
        self._block_cache: Dict[Tuple[int, int, Inject], Callable] = {}
        #: (cfi, header, variant) -> its entries (see :meth:`region_entries`)
        self._region_cache: Dict[Tuple[int, int, Variant], Dict[int, Callable]] = {}
        #: (cfi, block, call index, inject or None) -> resume variant
        self._resume_cache: Dict[Tuple[int, int, int, Optional[Inject]], Callable] = {}
        self._check_site: Dict[int, int] = {}  # id(check call) -> site id
        #: leaf cfi -> id(value) -> the Python local a call site inlining
        #: the leaf uses (``q3_12``); see :meth:`_gen_inlined_call`
        self._leaf_regs: Dict[int, Dict[int, str]] = {}
        self._doms: Dict[int, DominatorTree] = {}  # cfi -> its dominator tree
        self._lives: Dict[int, Live] = {}  # cfi -> its slot liveness
        #: (cfi, header) -> the source of a region's profiled form, made
        #: with its lean form and not yet compiled
        self._twins: Dict[Tuple[int, int], str] = {}
        #: leaf cfi -> what every call site inlining it shares
        self._leaves: Dict[int, _Leaf] = {}

    def _live(self, cf: CompiledFunction) -> Live:
        live = self._lives.get(cf.index)
        if live is None:
            live = self._lives[cf.index] = liveness(
                cf.fn, self._slot_of[cf.index], self._block_index[cf.index]
            )
        return live

    def _dom(self, cf: CompiledFunction) -> DominatorTree:
        dom = self._doms.get(cf.index)
        if dom is None:
            dom = self._doms[cf.index] = DominatorTree(cf.fn)
        return dom

    # -- slot assignment ---------------------------------------------------------

    def _assign_slots(self, cf: CompiledFunction) -> Dict[int, int]:
        slots: Dict[int, int] = {}
        n = 0
        for arg in cf.fn.args:
            slots[id(arg)] = n
            n += 1
        for block in cf.fn.blocks:
            for inst in block.instructions:
                if inst.produces_value():
                    slots[id(inst)] = n
                    n += 1
        cf.nslots = max(n, 1)
        return slots

    # -- expression rendering -------------------------------------------------------

    def _expr(self, value: Value, regs: Dict[int, str]) -> str:
        reg = regs.get(id(value))
        if reg is not None:
            return reg
        if isinstance(value, Constant):
            if value.type.is_float():
                v = value.value
                if math.isnan(v):
                    return "_NAN"
                if math.isinf(v):
                    return "_INF" if v > 0 else "(-_INF)"
                return repr(v)
            if value.type.is_integer() and value.type.bits == 1:  # type: ignore[attr-defined]
                return "True" if value.value else "False"
            return repr(value.value)
        if isinstance(value, UndefValue):
            if value.type.is_float():
                return "0.0"
            return "0"
        if isinstance(value, GlobalVariable):
            return repr(self.cm.global_addr[value.name])
        raise InterpreterBug(f"cannot render operand {value!r}")

    # -- function compilation ----------------------------------------------------------

    def prepare_function(self, cf: CompiledFunction) -> None:
        """Phase one: slots, block gids, instruction records and the leaf
        verdict, everything a call site in another function may need."""
        slots = self._assign_slots(cf)
        self._slot_of[cf.index] = slots
        self._frame_regs[cf.index] = {k: f"f[{s}]" for k, s in slots.items()}
        self._local_regs[cf.index] = {k: f"r{s}" for k, s in slots.items()}
        self._block_index[cf.index] = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        for i, block in enumerate(cf.fn.blocks):
            gid = self.cm.total_blocks
            self.cm.total_blocks += 1
            self.cm.block_gids[id(block)] = gid
            for inst in block.instructions:
                if inst.produces_value():
                    self.cm.records[id(inst)] = InstructionRecord(
                        inst, cf.index, i, gid, slots[id(inst)]
                    )
        if _is_leaf(cf.fn):
            self._leaf_regs[cf.index] = {
                k: f"q{cf.index}_{s}" for k, s in slots.items()
            }

    def compile_blocks(self, cf: CompiledFunction) -> None:
        """Phase two: one block function per block."""
        for i, block in enumerate(cf.fn.blocks):
            source, fn = self._gen_block(cf, i, None)
            cb = CompiledBlock(
                i,
                self.cm.block_gids[id(block)],
                fn,
                self.cm.cost_model.block_cost(block),
                source,
                block,
            )
            cf.blocks.append(cb)
            cf.block_fns.append(fn)
            cf.costs.append(cb.cost)

    def compile_regions(self, cf: CompiledFunction) -> None:
        """Phase three: plan and compile the regions, building
        ``region_fns``."""
        cf.region_fns = list(cf.block_fns)
        for region in self._find_regions(cf):
            self._regions[(cf.index, region.header)] = region
            for bi in region.order:
                cf.region_of[bi] = region.header
            for bi, fn in self.region_entries(cf, region.header).items():
                cf.region_fns[bi] = fn

    def compile_block(self, cf: CompiledFunction, bi: int, inject: Inject) -> Callable:
        """The injectable variant of block ``bi`` (see :func:`_inject`)."""
        key = (cf.index, bi, inject)
        cached = self._block_cache.get(key)
        if cached is None:
            _, cached = self._gen_block(cf, bi, inject)
            self._block_cache[key] = cached
        return cached

    def compile_resume(
        self, cf: CompiledFunction, bi: int, call_k: int, inject: Optional[Inject]
    ) -> Callable:
        """Generate the warm-start resume variant of one block.

        See :meth:`CompiledModule.resume_block_fn` for the contract.  The
        generated function has no cycle/budget/profile preamble: the
        suspended block instance was charged and profiled at its original
        entry, before the ladder rung was captured.
        """
        key = (cf.index, bi, call_k, inject)
        cached = self._resume_cache.get(key)
        if cached is not None:
            return cached
        regs = self._frame_regs[cf.index]
        block = cf.fn.blocks[bi]
        insts = [i for i in block.instructions if not isinstance(i, PhiNode)]
        seen = 0
        resume_at = None
        for idx, inst in enumerate(insts):
            if isinstance(inst, CallInst) and not inst.callee.is_declaration:
                if seen == call_k:
                    resume_at = idx
                    break
                seen += 1
        if resume_at is None:
            raise InterpreterBug(
                f"no pending call #{call_k} in {cf.name} block {block.name}"
            )
        pending = insts[resume_at]
        remainder = insts[resume_at + 1 :]
        lines: List[str] = []
        emit = lines.append
        emit("def _block(f, state):")
        if _needs_cells(remainder):
            emit("    cells = state.cells")
        self._gen_slot_load(inject, emit)
        d = regs.get(id(pending))
        if d is not None:
            emit(f"    {d} = state.resume_call()")
        else:
            emit("    state.resume_call()")
        self._gen_guarded_injection(pending, regs, emit, inject)
        for inst in remainder:
            if inst.is_terminator():
                self._gen_terminator(inst, regs, emit, self._returner(cf))
            else:
                self._gen_instruction(inst, regs, emit)
                self._gen_guarded_injection(inst, regs, emit, inject)
        fn = _exec(
            "\n".join(lines) + "\n",
            f"<resume {cf.name}.{block.name}+{call_k}>",
            "_block",
        )
        self._resume_cache[key] = fn
        return fn

    # -- block codegen --------------------------------------------------------------------

    def _returner(self, cf: CompiledFunction) -> Callable[[BasicBlock, Callable], None]:
        index = self._block_index[cf.index]
        return lambda target, emit: emit(f"    return {index[id(target)]}")

    def _gen_block(
        self, cf: CompiledFunction, bi: int, inject: Optional[Inject] = None
    ) -> Tuple[str, Callable]:
        """Block ``bi``'s function, or with ``inject`` its injectable
        variant."""
        block = cf.fn.blocks[bi]
        lines: List[str] = ["def _block(f, state):"]
        emit = lines.append
        emit(f"    state.cycles = _c = state.cycles + {self.cm.cost_model.block_cost(block)}")
        emit("    if _c > state.budget: state.hang()")
        emit("    _p = state.prof")
        emit(f"    if _p is not None: _p[{self.cm.block_gids[id(block)]}].append(_c)")
        if _needs_cells(block.instructions):
            emit("    cells = state.cells")
        self._gen_slot_load(inject, emit)
        self._gen_body(
            block, self._frame_regs[cf.index], emit, self._returner(cf), inject
        )
        source = "\n".join(lines) + "\n"
        return source, _exec(source, f"<block {cf.name}.{block.name}>", "_block")

    def _gen_body(
        self,
        block: BasicBlock,
        regs: Dict[int, str],
        emit,
        leave: Callable[[BasicBlock, Callable], None],
        inject: Optional[Inject],
        local: bool = False,
        ret: Optional[Callable[[Optional[str], Callable], None]] = None,
        fall: bool = False,
        variant: Optional[Variant] = None,
        vn: Optional[_Numbering] = None,
        frame: Optional[Frame] = None,
    ) -> None:
        """A block's instructions and terminator (phis are materialised as
        edge copies in the predecessors), with ``inject`` the injection
        epilogues too.  ``local``, ``variant`` (region code's form, None
        in a block function) and ``vn`` (its value numbering, None where
        the form is not numbered) see :meth:`_gen_instruction`; ``ret``
        and ``fall`` see :meth:`_gen_terminator`.  Numbered code settles
        its pending charge before each instruction that :func:`_settles`
        (see :meth:`_gen_member`) but a check it leaves out, and chains a
        counted call into the next instruction it emits something for
        when that is a counted call too."""
        insts = [i for i in block.instructions if not isinstance(i, PhiNode)]
        silent = vn.fast.silent if vn is not None and vn.fast is not None else ()
        for k, inst in enumerate(insts):
            if vn is not None:
                vn.chained = self._counted(inst) and self._chains(insts[k + 1 :], regs, vn)
            if vn is not None and _settles(inst) and not self._dropped(inst, regs, vn):
                vn.settle(emit)
            if inst.is_terminator():
                self._gen_terminator(inst, regs, emit, leave, ret, fall, vn, frame)
            else:
                # a fast copy numbers what it does not emit, as its checked
                # loop does
                out = _discard if id(inst) in silent else emit
                self._gen_instruction(inst, regs, out, local, variant, vn)
                self._gen_guarded_injection(inst, regs, emit, inject)

    # -- region codegen -------------------------------------------------------------------

    def _find_regions(self, cf: CompiledFunction) -> List[Region]:
        """Plan one region per outermost natural loop."""
        dom = self._dom(cf)
        loops = LoopInfo(cf.fn, dom)
        index = self._block_index[cf.index]
        rpo = [index[id(b)] for b in dom.reachable_blocks]
        claimed: Set[BasicBlock] = set()
        regions = []
        nests = sorted(loops.loops, key=lambda lp: -len(lp.blocks))
        for loop in nests:
            if claimed & loop.blocks:
                continue
            claimed |= loop.blocks
            order = sorted(
                loop.blocks,
                key=lambda b: (-loops.loop_nest_depth(b), index[id(b)]),
            )
            inner = [
                (index[id(lp.header)], [bi for bi in rpo if cf.fn.blocks[bi] in lp.blocks])
                for lp in nests if lp.blocks <= loop.blocks
            ]
            regions.append(self._plan_region(cf, loop.header, order, inner))
        return regions

    def _plan_region(
        self, cf: CompiledFunction, header: BasicBlock, order: List[BasicBlock],
        loops: List[Tuple[int, List[int]]],
    ) -> Region:
        """Where a region is entered, which slots it assigns, and where its
        lean code tests the budget.

        A region is entered at every block it dispatches on (see
        :meth:`_dispatch_targets`): at its header from the code before the
        loop, at an inner loop header when the dispatch loop steps onto it
        block by block (after a trip or a deopt exit).  Which slots its
        code loads and writes back follows from slot liveness and the
        slots it assigns (see :class:`~repro.interp.regalloc.Frame`).

        Region code charges every member but tests the budget only at
        *test points*: the entries, and every member that follows one
        holding a call that can be real
        (:func:`_real_call`; after it ``_c`` has grown by an unknown
        amount).  A test point tests ``_c + R`` against the budget, where
        ``R``, its *bound*, is the largest charge any path can add after
        the point's own before it reaches the next test point, a back edge
        or an exit: the members' costs.  While the test passes, no member
        charge up to the next test can pass the budget, so nothing in
        between trips or hangs.  An inlined leaf's blocks test the hang
        budget themselves (:meth:`_gen_inlined_call`), and a leaf call is a
        call that can be real, so its member's successors test again.
        """
        slots = self._slot_of[cf.index]
        index = self._block_index[cf.index]
        blocks = cf.fn.blocks
        inside: FrozenSet[BasicBlock] = frozenset(order)
        members = [index[id(b)] for b in order]
        entries, joins = self._dispatch_targets(cf, members, index[id(header)])
        written = frozenset(
            slots[id(i)] for b in order for i in b.instructions if id(i) in slots
        )
        points = set(entries)
        for bi in members:
            if any(map(_real_call, blocks[bi].instructions)):
                points.update(
                    index[id(s)] for s in blocks[bi].successors() if s in inside
                )
        after: Dict[int, int] = {}

        def bound(bi: int) -> int:
            """The largest charge from ``bi``'s own on to the next test
            point, back edge or exit: every edge to a block that is not a
            test point is a forward edge, since back edges enter loop
            headers, which are entries."""
            if bi not in after:
                succs = [index[id(s)] for s in blocks[bi].successors() if s in inside]
                rest = [cf.costs[k] + bound(k) for k in succs if k not in points]
                after[bi] = max(rest, default=0)
            return after[bi]

        return Region(
            index[id(header)], members, entries, joins, written,
            {bi: bound(bi) for bi in sorted(points)}, loops,
            self._counted_loops(cf, loops),
        )

    def _counted_loops(
        self, cf: CompiledFunction, loops: List[Tuple[int, List[int]]]
    ) -> Dict[int, Counted]:
        """The counted loops among ``cf``'s ``loops`` (header, members in
        reverse postorder), by header (see :mod:`~repro.interp.counted`):
        a block charges its cost and the costliest path of each leaf it
        inlines, and a call that may be real keeps its loop checked."""
        blocks = cf.fn.blocks
        index = self._block_index[cf.index]

        def charge(block: BasicBlock) -> Optional[int]:
            total = cf.costs[index[id(block)]]
            for inst in block.instructions:
                if _real_call(inst):
                    cfi = self._leaf_callee(inst)
                    extra = None if cfi is None else self._leaf(cfi).cost
                    if extra is None:
                        return None
                    total += extra
            return total

        found = {}
        for header, members in innermost_loops(loops):
            loop = counted_loop([blocks[bi] for bi in members], charge, self._leaf_callee)
            if loop is not None:
                found[header] = loop
        return found

    def _leaf(self, cfi: int) -> "_Leaf":
        """What every call site inlining the leaf ``cfi`` shares."""
        got = self._leaves.get(cfi)
        if got is None:
            leaf = self.cm.cfuncs[cfi]
            blocks = leaf.fn.blocks
            dom = self._dom(leaf)
            index = self._block_index[cfi]
            rpo = [index[id(b)] for b in dom.reachable_blocks]
            loops = [
                (index[id(lp.header)], [bi for bi in rpo if blocks[bi] in lp.blocks])
                for lp in LoopInfo(leaf.fn, dom).loops
            ]
            placement = self._dispatch_targets(leaf, list(range(len(blocks))), 0)
            got = self._leaves[cfi] = _Leaf(
                placement, self._leaf_prefix(leaf, placement),
                longest(blocks[0], lambda b: b.successors(), lambda b: leaf.costs[index[id(b)]]),
                self._counted_loops(leaf, loops),
            )
        return got

    def _gen_region(
        self, cf: CompiledFunction, region: Region, variant: Variant
    ) -> Callable:
        """Generate one region function in ``variant``'s form.

        The cycle count lives in the local ``_c``: it is written back to
        ``state.cycles`` before every exit, around calls, and by the handler
        when an exception (trap, hang, failed check, host-level error)
        leaves the region, so ``state.cycles`` is exact wherever anything
        outside can read it.  A region that calls a leaf loads the guard
        of :meth:`_gen_inlined_call` (a counting run's injected function,
        a tripping run's golden cycle of the one real call, and the depth
        test) once at entry.  Every form starts at any block it dispatches
        on, passed as ``bi`` (see :meth:`region_entries`).  Every form
        loads, writes back and moves values by slot liveness
        (:class:`~repro.interp.regalloc.Frame`).

        A region's budget ``_bud`` is ``state.rbudget``: the hang budget,
        just below a tripping trial's golden flip cycle until the trip, or
        just below a resync-armed warm trial's next rung once its flip has
        fired.  Lean code tests it only at the region's test points (see
        :meth:`_plan_region`) and never reads ``state.prof`` (the profiled
        form adds ``variant.bump``).  When a test point's
        charge plus its bound passes the budget, the slow path re-reads it
        (a trip in a callee restores the hang budget, leaving this copy
        stale) and otherwise leaves through a *deopt exit* at the test
        point's top: it writes the slots the point ``k`` may read to the
        frame list, puts ``state.cycles`` back to its top, and returns
        ``state.step(f, cfi, k)``: ``k`` runs on the per-block table
        (hanging when its charge passes ``state.budget``, tripping when it
        passes the region budget before the flip), and the blocks after it
        run on the dispatch loop's table, block by block, until a region
        entry tests again.  So a trip, trap, hang or rung lands on the block
        and cycle at which the per-block table has it.  An inlined leaf block never
        trips (the one call that holds the flip is a real call); it tests
        the hang budget (see :meth:`_gen_inlined_call`).

        A resync-armed warm trial runs the lean form (or its profiled
        twin) between its events, the trip and the rungs (see
        ``Interpreter._call_tracked``); its golden resync compares each
        frame on the slots block-by-block execution may still read.  So
        before a real call to a defined function (a counted call, or an
        inlined leaf's real call), when the run tracks its frames
        (``_rec``, this frame's tracking record, loaded at entry when
        ``state.trk`` is set), lean code sets the record to the block and
        the calls made before this one in it, as the per-block loop has it
        when the callee counts one more, and writes back the slots live
        after the call that region code assigns
        (:meth:`~repro.interp.regalloc.Frame.call_writes`): a compare inside
        the callee then reads this frame as the per-block loop leaves it.

        The lean and profiled forms number values (:class:`_Numbering`):
        within the dominators of a member, a pure value or a load already
        computed is a copy of the register holding it, a memory access to
        an address accessed before drops its re-checks, ``x + 1`` under a
        true ``x < y`` drops its wrap, and a duplication check whose two
        operands have one number is left out.  They also hoist each loop's
        invariants (:meth:`_plan_hoists`): computed on every edge into the
        loop's header from outside the loop and, in the prologue, for each
        entry the loop holds, outermost loop first, they seed the
        numbering at the loop's dispatch targets, so the loop copies them.
        Their prologue loads only each entry's own slots and computes the
        inline guard's invariant part (see :meth:`_gen_inlined_call`).
        Their values no longer sit one per register
        (:class:`~repro.interp.regalloc.Locals`): a copy reads its source,
        a pure value read once later in its member is folded into its
        reader, a phi shares a local with the values that feed it where
        their live ranges do not interfere, and the moves left are single
        assignments.  So a local holds a value only where that value is
        live, and each exit and deopt exit writes each slot from the local,
        hoist or expression holding it.  A fault enters these forms only
        through the frame, memory or a call's result, written by an
        injectable variant outside them, so every value it corrupts gets a
        number of its own, and a register defined outside a loop keeps its
        value while control stays in the loop; the injectable forms, which
        themselves hold a trial's fault, are not numbered.  They also
        charge cycles per stretch rather than per block (see
        :meth:`_gen_member`), so a deopt exit, an exit, a counted call and
        the inline guard add the charge still pending to ``_c``, which is
        exact wherever anything can raise.
        """
        if variant.inject is not None:
            frame = Frame(self, cf, region)
            source = frame.finish(self._region_lines(cf, region, variant, frame))
        else:
            # The lean form is its profiled twin less the profile lines, so
            # one generation makes both, and the twin's source waits for a
            # profiled run (rank threads may ask for it at once: one that
            # finds it taken generates it again).
            key = (cf.index, region.header)
            source = self._twins.pop(key, None) if variant.bump is not None else None
            if source is None:
                plan = Locals(self, cf, region)
                lines = self._region_lines(cf, region, PROFILED, plan)
                plan.solve(lines)
                source = plan.finish(lines)
                if variant.bump is None:
                    self._twins[key] = source
                    source = without_profile(source)
        header = cf.fn.blocks[region.header]
        return _exec(source, f"<{variant.name} {cf.name}.{header.name}>", "_region")

    def _region_lines(
        self, cf: CompiledFunction, region: Region, variant: Variant,
        frame: Frame,
    ) -> List[str]:
        """The lines of :meth:`_gen_region`'s function, crossing the frame
        boundary as ``frame`` says, and numbered and marked for it when it
        is a :class:`~repro.interp.regalloc.Locals`."""
        blocks = cf.fn.blocks
        insts = [i for bi in region.order for i in blocks[bi].instructions]
        leaves = {cfi for cfi in map(self._leaf_callee, insts) if cfi is not None}
        leaf_insts = [
            i for cfi in leaves for b in self.cm.cfuncs[cfi].fn.blocks
            for i in b.instructions
        ]
        lines = [f"def _region(f, state, bi={region.header}):"]
        emit = lines.append
        # Nothing a region's callees do replaces the profile list or the
        # cell arena, so they load once per entry; a callee may move the
        # region budget, which region code re-reads in its slow path.
        emit("    _bud = state.rbudget")
        if variant.bump is not None:
            emit("    _p = state.prof")
        if _needs_cells(insts + leaf_insts):
            emit("    cells = state.cells")
        emit("    _c = state.cycles")
        numbered = isinstance(frame, Locals)
        if numbered and _defined_calls(insts):
            emit("    _rec = state.trk and state.trk.frames[-1]")
        if leaves:
            emit("    _ij = -1 if state.inj_trip else state.inj_cfi")
            emit("    _ca = state.inj_call_at")
            emit("    _dok = state.depth < state.DEFAULT_MAX_DEPTH")
            for cfi in sorted(leaves) if numbered else ():
                emit(f"    _in{cfi} = _dok and _ij != {cfi}")
        self._gen_slot_load(variant.inject, emit)
        vn = hoists = None
        regs = self._local_regs[cf.index]
        if numbered:
            vn = _Numbering(profiled=variant.bump is not None, locals=frame)
            hoists = frame.hoists = self._plan_hoists(cf, region, vn)
        emit("\x04")  # the prologue, once the frame knows what to load
        emit("    try:")

        def leave_region(k: int, out) -> None:
            count = "_c" if vn is None else _plus(vn.pending)
            stores = frame.frame_writes(frame.exit_writes(k))
            out(f"    state.cycles = {count}; {stores}return {k}")

        self._gen_dispatch(
            cf, region.order, (region.entries, region.joins), regs,
            lambda line: emit("    " + line), "bi", leave_region, None, variant,
            region.bounds, vn, hoists, frame=frame, counted=region.counted,
        )
        # ``_c`` is None while a callee runs: the callee's count stands.
        emit("    except:")
        emit("        if _c is not None: state.cycles = _c")
        emit("        raise")
        return lines

    def _plan_hoists(
        self, cf: CompiledFunction, region: Region, vn: _Numbering
    ) -> _Hoists:
        """The invariants of each loop of ``region``, numbered by ``vn``.

        An instruction anywhere in a loop, an inlined leaf's included, is
        hoisted when it is :func:`_hoistable` and each operand is a
        constant, a value defined outside the loop or one hoisted already.
        Each pure shape and operand numbers is computed once, into a local
        ``_h{n}`` (no register of the function); an outer
        loop's hoist serves its inner loops.  A loop's facts (the numbers
        of its hoists and their operands) chain onto the facts of the loop
        that holds it and seed the numbering at each dispatch target in
        the loop, where a hoisted computation becomes a copy.  They hold
        there: an operand defined outside the loop keeps its register's
        value while control stays in the loop, and every way into the
        loop computes the hoists afresh, from the registers it has.
        """
        blocks = cf.fn.blocks
        index = self._block_index[cf.index]
        regs = self._local_regs[cf.index]
        loops: Dict[int, Tuple[FrozenSet[int], List[str]]] = {}
        chains: Dict[int, _Facts] = {}
        fresh = (f"_h{n}" for n in count())

        def innermost(bi: int) -> Optional[int]:
            """The header of the innermost loop planned so far holding ``bi``."""
            holders = [h for h, (members, _) in loops.items() if bi in members]
            return min(holders, key=lambda h: len(loops[h][0]), default=None)

        def hoist(inst: Instruction, render, into: Dict[int, str], lines: List[str]) -> None:
            """Hoist ``inst`` into ``into`` when it is hoistable and ``render``
            renders each operand (None: a value that varies in the loop)."""
            if not _hoistable(inst):
                return
            values = {id(o): render(o) for o in inst.operands}
            if None in values.values():
                return
            key = (*_pure_shape(inst), *(vn.of(values[id(o)]) for o in inst.operands))
            local = vn.held(key)
            if local is None:
                local = values[id(inst)] = next(fresh)
                self._gen_numbered(inst, values, lines.append, vn)
            into[id(inst)] = local

        for header, members in region.loops:
            inside = frozenset(members)
            holder = innermost(header)
            vn.facts = _Facts(() if holder is None else chains[holder])
            lines: List[str] = []
            hoisted: Dict[int, str] = {}

            def outer(value: Value) -> Optional[str]:
                if id(value) in hoisted:
                    return hoisted[id(value)]
                if isinstance(value, Instruction) and index[id(value.parent)] in inside:
                    return None
                return self._expr(value, regs)

            for bi in members:
                for inst in blocks[bi].instructions:
                    cfi = self._leaf_callee(inst)
                    if cfi is None:
                        hoist(inst, outer, hoisted, lines)
                        continue
                    # the leaf's own values vary unless hoisted; its
                    # arguments are the call's operands
                    leaf = self.cm.cfuncs[cfi].fn
                    known = {id(p): outer(a) for p, a in zip(leaf.args, inst.operands)}

                    def inner(value: Value) -> Optional[str]:
                        if isinstance(value, (Instruction, Argument)):
                            return known.get(id(value))
                        return self._expr(value, {})

                    for block in self._dom(self.cm.cfuncs[cfi]).reachable_blocks:
                        for leaf_inst in block.instructions:
                            hoist(leaf_inst, inner, known, lines)
            loops[header] = (inside, lines)
            chains[header] = vn.facts
        vn.facts = _Facts()
        return _Hoists(loops, {k: chains[innermost(k)] for k in region.entries})

    def _gen_dispatch(
        self,
        cf: CompiledFunction,
        order: List[int],
        placement: Tuple[List[int], Dict[int, int]],
        regs: Dict[int, str],
        out,
        bvar: str,
        exit_: Optional[Callable[[int, Callable], None]],
        ret: Optional[Callable[[Optional[str], Callable], None]],
        variant: Variant,
        tests: Dict[int, int],
        vn: Optional[_Numbering] = None,
        hoists: Optional[_Hoists] = None,
        straight: Optional[int] = None,
        frame: Optional[Frame] = None,
        counted: Optional[Dict[int, Counted]] = None,
    ) -> None:
        """A ``while True`` loop (at ``out``'s indentation) dispatching on
        the local ``bvar`` among the blocks ``order`` of ``cf``, placed as
        ``placement`` (their :meth:`_dispatch_targets`) says, each block in
        ``variant``'s form with the budget test ``tests`` holds for it
        (see :meth:`_gen_member`; none where it holds none), numbered by
        ``vn`` afresh from each dispatch target on, from the facts
        ``hoists`` seeds it with there (a leaf's targets keep its caller
        target's), and with ``hoists``' lines for a loop on every edge into
        its header from outside it.

        Each block is emitted once, at its immediate dominator: a block
        entered by exactly one edge inside the branch arm of that edge, a
        *join* right after the ``if``/``else`` of the block it joins, where
        the arms that reach it do their phi copies and fall through.  Only
        the dispatch targets (the head, the loop headers and any block
        neither rule places) cost a ``bvar`` test; an edge to one sets
        ``bvar`` and continues.  ``exit_(k, out)`` emits the edge to a
        block ``k`` outside ``order``, and ``ret(value, out)`` a ``ret``
        (see :meth:`_gen_terminator`).

        ``straight`` (an inlined leaf's, see :meth:`_leaf_prefix`) emits
        the head, ``order[0]``, and the blocks it places straight-line
        before the loop, in the caller's numbering scope: they fall into
        the loop at the dispatch target ``straight``, or, when it is
        :data:`_RETURNS`, end in the leaf's ``ret`` and there is no loop.
        A loop left with one target tests and sets no ``bvar``.

        Region code crosses the frame boundary as ``frame``
        says (see :class:`~repro.interp.regalloc.Frame`); an inlined
        leaf's dispatch has none.  Numbered code (``vn``) charges as
        :meth:`_gen_member` says: it settles everything at an edge to a
        dispatch target, the arms that fall into a join settle to its
        state in the plan of :meth:`_plan_charges`, and an exit writes
        ``_c`` plus the pending charge back.

        Numbered code also runs each loop of ``counted`` whose header is a
        dispatch target, no other block of it one, as a ``for`` loop first
        (see :mod:`~repro.interp.counted`): at the header's top, a fast
        copy that emits the header's taken arm and the body with
        :attr:`_Numbering.fast` set, so that no member tests the budget,
        an inlined call makes no real call and the latch's edge moves
        every phi but ``i`` and continues the ``for``.  Its lines are
        marked for :meth:`~repro.interp.regalloc.Locals.fast`.
        """
        index = self._block_index[cf.index]
        targets, joins = placement
        dispatched = set(targets)
        members = set(order)
        head = order[0]
        loop_targets = targets if straight is None else [t for t in targets if t != head]
        tested = straight is None or len(loop_targets) > 1
        plan: Dict[int, Charge] = {}
        fast: Dict[int, Counted] = {}
        if vn is not None:
            start = vn.charge if straight is not None else None
            plan = self._plan_charges(cf, order, placement, tests, start)
            fast = {
                bi: loop for bi, loop in (counted or {}).items()
                if bi in dispatched and bi not in joins and not any(
                    index[id(b)] in dispatched for b in loop.blocks if b is not loop.header
                )
            }

        def gen_member(bi: int, o, follow: Optional[int]) -> None:
            # ``follow`` is the join control falls into off the end of
            # ``o``; inside this block's arms it is the block's own join.
            join = joins.get(bi)
            inner = follow if join is None else join
            if vn is not None and bi in plan:
                vn.pending, vn.hangs = plan[bi]
            self._gen_member(
                cf, bi, regs, o, lambda target, oo: leave(target, oo, inner, bi),
                ret, variant, tests.get(bi), fall=inner is not None, vn=vn,
                frame=frame,
            )
            if join is not None:
                gen_member(join, o, follow)

        def leave(target: BasicBlock, o, follow: Optional[int], src: int) -> None:
            k = index[id(target)]
            if vn is not None and vn.fast is not None and target is vn.fast.header:
                vn.settle(o)
                o("    continue")
                return
            if k == follow:
                if vn is not None:
                    vn.settle(o, plan.get(k, (0, ())))
                return
            if k in dispatched:
                if vn is not None:
                    vn.settle(o)
                # an edge into a loop from outside it computes the loop's
                # invariants
                loop = hoists.loops.get(k) if hoists is not None else None
                if loop is not None and src not in loop[0]:
                    for line in loop[1]:
                        o(line)
                o(f"    {bvar} = {k}; continue" if tested else "    continue")
            elif k in members:
                gen_member(k, o, follow)
            else:
                exit_(k, o)

        def gen_fast(bi: int, o, seed: Optional[_Facts]) -> None:
            loop = fast[bi]
            mark = vn.locals.fast(o)
            i, b = self._expr(loop.phi, regs), self._expr(loop.bound, regs)
            with vn.barrier(seed):
                mark("    " + guard(loop, i, b, _plus(vn.pending)))
                mark(f"        for {i} in range({i}, {b}):")
                vn.fast = loop
                try:
                    gen_member(bi, lambda line: mark("        " + line), None)
                finally:
                    vn.fast = None
                mark(f"        {i} = {b}")

        if straight is not None:
            gen_member(head, out, None if straight == _RETURNS else straight)
            if not loop_targets:
                return
            if tested:
                out(f"    {bvar} = {straight}")
            if straight in fast:
                gen_fast(straight, out, None)
        out("    while True:")
        for bi in loop_targets:
            if bi != loop_targets[-1]:
                out(f"        if {bvar} == {bi}:")
                pad = "        "
            else:
                pad = "    "
            seed = hoists.seeds[bi] if hoists is not None else None
            o = lambda line, _pad=pad: out(_pad + line)
            if bi in fast and straight is None:
                gen_fast(bi, o, seed)
            with nullcontext() if vn is None else vn.barrier(seed):
                gen_member(bi, o, None)

    def _plan_charges(
        self, cf: CompiledFunction, order: List[int],
        placement: Tuple[List[int], Dict[int, int]], tests: Dict[int, int],
        start: Optional[Charge],
    ) -> Dict[int, Charge]:
        """The charge state numbered code enters each join of
        ``placement`` with (see :meth:`_gen_dispatch`): the merge
        (:func:`_merge`) of the states on the edges that fall into it.
        Dispatch targets start from nothing pending, and ``order[0]``
        from ``start`` when given (a straight-line head); every block
        takes its state on through :func:`_charged` (owing a hang test
        where ``tests`` holds :data:`_HANG`).  Reverse postorder reaches a join after every edge
        into it, since edges into dispatch targets are the only back
        edges.  The plan settles at every check, numbered code not at one
        it leaves out (:meth:`_dropped`), so an arm reaches a join with at
        least the planned pending charge, which it can settle down to."""
        index = self._block_index[cf.index]
        targets, joins = placement
        joined = set(joins.values())
        members = set(order)
        tops: Dict[int, Charge] = dict.fromkeys(targets, (0, ()))
        if start is not None:
            tops[order[0]] = start
        arms: Dict[int, List[Charge]] = {bi: [] for bi in order}
        for block in self._dom(cf).reachable_blocks:
            bi = index[id(block)]
            if bi not in members:
                continue
            if bi in joined:
                tops[bi] = _merge(arms[bi])
            elif bi not in tops:
                (tops[bi],) = arms[bi]
            gid = self.cm.block_gids[id(block)] if tests.get(bi) == _HANG else None
            out = _charged(block, cf.costs[bi], tops[bi], gid)
            for succ in block.successors():
                k = index[id(succ)]
                if k in members and k not in targets:
                    arms[k].append(out)
        return {bi: tops[bi] for bi in joined}

    def _dispatch_targets(
        self, cf: CompiledFunction, order: List[int], head: int
    ) -> Tuple[List[int], Dict[int, int]]:
        """Where :meth:`_gen_dispatch` places the blocks of ``order``:
        (the dispatch targets, in order; block -> the join placed right
        after its ``if``/``else``).

        On the forward CFG of ``order`` from ``head`` (back edges and
        exits leave it), a block J entered by more than one edge is the
        join of block B when B is J's immediate dominator, B ends in a
        conditional branch and J is B's immediate post-dominator (blocks
        with no forward successor feed a virtual exit).  The targets are
        ``head``, every block a back edge enters, and every other block
        entered by more than one edge that is no join.  A join that some
        edge would enter other than by falling into it (an unstructured
        shape) becomes a target too, until every edge is placed.  A block
        entered by exactly one edge is neither: it sits in that edge's
        arm.
        """
        index = self._block_index[cf.index]
        blocks = cf.fn.blocks
        members = set(order)
        dom = self._dom(cf)
        succs = {
            bi: [index[id(s)] for s in blocks[bi].successors() if index[id(s)] in members]
            for bi in order
        }
        targets = {head}
        edges_in = dict.fromkeys(order, 0)
        forward: Dict[int, List[int]] = {bi: [] for bi in order}
        for bi in order:
            for k in succs[bi]:
                edges_in[k] += 1
                if dom.dominates(blocks[k], blocks[bi]):
                    targets.add(k)  # a back edge
                else:
                    forward[bi].append(k)
        # Post-dominator sets, successors first: reverse postorder of the
        # function orders its forward edges.
        pdom: Dict[int, Set[int]] = {}
        for block in reversed(dom.reachable_blocks):
            bi = index[id(block)]
            if bi in members:
                after = [pdom[k] for k in forward[bi]]
                pdom[bi] = {bi}.union(set.intersection(*after) if after else ())
        joins: Dict[int, int] = {}
        for bi in order:
            if bi in targets or edges_in[bi] == 1:
                continue
            idom = dom.immediate_dominator(blocks[bi])
            term = idom.terminator if idom is not None else None
            if isinstance(term, BranchInst) and term.is_conditional:
                b = index[id(idom)]
                rest = pdom[b] - {b}
                # the immediate post-dominator: the closest, with most of its own
                if rest and max(rest, key=lambda k: len(pdom[k])) == bi:
                    joins[b] = bi
                    continue
            targets.add(bi)

        def misplaced() -> Optional[int]:
            """Walk the placement; the first join some edge enters other
            than by falling into it, else None."""
            placed = set(joins.values())
            work: List[Tuple[int, Optional[int]]] = [(t, None) for t in targets]
            while work:
                bi, follow = work.pop()
                join = joins.get(bi)
                inner = follow if join is None else join
                if join is not None:
                    work.append((join, follow))
                for k in succs[bi]:
                    if k == inner or k in targets:
                        continue
                    if k in placed:
                        return k
                    work.append((k, inner))
            return None

        while True:
            bad = misplaced()
            if bad is None:
                break
            targets.add(bad)
            del joins[next(b for b, j in joins.items() if j == bad)]
        return [bi for bi in order if bi in targets], joins

    def _gen_member(
        self,
        cf: CompiledFunction,
        bi: int,
        regs: Dict[int, str],
        out,
        leave,
        ret,
        variant: Variant,
        test: Optional[int],
        fall: bool = False,
        vn: Optional[_Numbering] = None,
        frame: Optional[Frame] = None,
    ) -> None:
        """One block in region code: charge ``_c``, make the budget test
        ``test``, bump the profile with the block's own gid when
        ``variant`` bumps it, then its body (``fall`` see
        :meth:`_gen_terminator`, ``vn`` :meth:`_gen_instruction`).

        ``test`` is None for no test, :data:`_HANG` for a hang test (an
        inlined leaf block: see :meth:`_gen_inlined_call`), and otherwise
        a region member's deopt test, whose bound it is.  The deopt exit
        (see :meth:`_gen_region`) writes the slots the block may read back
        (``frame``, see :class:`~repro.interp.regalloc.Frame`) and steps
        the block on the per-block table.

        Numbered code (``vn``, the lean and profiled forms) charges per
        stretch, not per block: it adds the block's cost to the pending
        charge ``vn.pending`` and owes its hang test, and adds the pending
        charge to ``_c`` (settles it, see :meth:`_Numbering.settle`) only
        right before something that can see the count: an instruction
        that :func:`_settles`, an edge to a dispatch target, or the join
        its arms settle to (see :meth:`_gen_dispatch`).  So a stretch of
        blocks that cannot raise makes one charge.  What reads the count
        without settling adds the pending charge: a deopt test (``_c + P
        + R > _bud``) and its exit, a profile bump, an exit, the inline
        guard and a counted call (see :meth:`_gen_inlined_call`)."""
        block = cf.fn.blocks[bi]
        cost = self.cm.cost_model.block_cost(block)
        if vn is not None and vn.fast is not None:
            test = None  # a fast copy's budget test is its guard
        own = test is not None and test != _HANG
        if vn is not None:
            vn.emitted += 1
            out = vn.locals.tagged(out, cf.index, bi)
        if vn is None:
            pending = 0
            out(f"    _c += {cost}")
            if test == _HANG:
                out("    if _c > _bud and _c > state.budget: state.hang()")
        else:
            vn.pending += cost
            pending = vn.pending
            if test == _HANG:
                vn.hangs += ((pending, self.cm.block_gids[id(block)]),)
        if own:
            at = _plus(pending + test)
            out(f"    if {at} > _bud:")
            out("        _bud = state.rbudget")
            writes = frame.frame_writes(frame.top_writes(bi))
            out(
                f"        if {at} > _bud: {writes}state.cycles = {_plus(pending - cost)}; "
                f"_c = None; return state.step(f, {cf.index}, {bi})"
            )
        if variant.bump is not None:
            out(variant.bump.format(self.cm.block_gids[id(block)], _plus(pending)))
        self._gen_body(
            block, regs, out, leave, variant.inject,
            local=True, ret=ret, fall=fall, variant=variant,
            vn=vn, frame=frame,
        )

    def region_entries(
        self, cf: CompiledFunction, header: int, variant: Variant = LEAN
    ) -> Dict[int, Callable]:
        """Entries into the region headed by ``header`` in ``variant``'s
        form: block index -> a callable ``(f, state)`` that runs the region
        from that block, for every block the region dispatches on
        (``Region.entries``: its loop headers; see
        :meth:`_dispatch_targets`).  A member emitted inside a branch arm
        or after an ``if``/``else`` has no entry; it runs as a block
        function until control reaches one.  Compiled on first use; every
        later call returns the same callables."""
        key = (cf.index, header, variant)
        entries = self._region_cache.get(key)
        if entries is None:
            region = self._regions[(cf.index, header)]
            fn = self._gen_region(cf, region, variant)
            entries = {
                bi: fn if bi == header else partial(fn, bi=bi) for bi in region.entries
            }
            self._region_cache[key] = entries
        return entries

    def _counted(self, inst: Instruction) -> bool:
        """Whether region code makes ``inst`` as a counted call (see
        :meth:`_gen_counted_call`) and inlines no part of it."""
        return _real_call(inst) and self._leaf_callee(inst) is None

    def _leaf_callee(self, inst: Instruction) -> Optional[int]:
        """The index of the leaf ``inst`` calls, or None when ``inst`` is
        not a call to a leaf."""
        if isinstance(inst, CallInst) and not inst.callee.is_declaration:
            cfi = self.cm.func_index[inst.callee.name]
            if cfi in self._leaf_regs:
                return cfi
        return None

    def _gen_inlined_call(
        self, inst: CallInst, cfi: int, regs: Dict[int, str], emit, variant: Variant,
        vn: Optional[_Numbering] = None,
    ) -> None:
        """A call to the leaf ``cfi`` from region code, run in the caller's
        locals behind a guard::

            if _dok and _ij != cfi and _c != _ca: <the leaf's blocks>
            else: <the counted state.call>

        The real call runs for the one call that holds a tripping run's
        flip, the call made at the golden cycle ``_ca``
        (``state.inj_call_at``; the trip happens inside it, and every
        later call starts past that cycle and inlines again), for every
        call to the injected function ``_ij`` of a counting run
        (``state.inj_cfi``, -1 in a tripping run; it counts there), and
        when the call would exceed ``Interpreter.DEFAULT_MAX_DEPTH`` (it
        raises ``StackOverflow``).  Numbered code tests ``_in{cfi}``
        instead of ``_dok and _ij != cfi``, which its prologue computes.
        Each inlined block charges ``_c`` and, in ``variant``'s form, bumps
        the profile with the leaf's own gid, as the call would, and tests
        the hang budget, so a trap, hang or failed check leaves through the
        region's handler with the exact count.  The leaf's values live in
        fresh locals (``q{cfi}_{slot}``), its arguments read the caller's
        operand expressions, and its ``ret`` assigns the call's own local.
        The injectable forms emit a one-block leaf as straight-line code
        and dispatch a larger one from its entry in a nested ``while`` on
        ``q{cfi}_bi``, which its ``ret`` breaks out of.
        Numbered code (``vn``) numbers each arm in a scope of its own, so
        the leaf's locals, which the next inlined call reuses, leave no
        fact behind, and forgets every memory fact after the call.  It
        emits the leaf's blocks before its first loop header straight-line
        (see :meth:`_leaf_prefix`), so a leaf without a loop has no
        ``while`` and one with a single loop tests no ``q{cfi}_bi``.  It
        also defers the leaf's charges and hang tests with its own (see
        :meth:`_gen_member`): the guard tests ``_c + P != _ca`` for the
        caller's pending charge ``P``, the counted call writes ``_c + P``
        back, and the leaf settles everything before its ``ret``.  A
        loop header's charge and hang test thus fold into its arms' own:
        one charge and one hang test per iteration.

        The inline path never writes ``state.ret`` and never moves ``sp``
        (a leaf has no ``alloca``), and nothing can tell: ``call`` and
        ``_call_tracked`` read ``state.ret`` only right after the callee's
        own ``ret`` wrote it, a rollback resets it, and region code never
        runs while a run recovers or captures a ladder (both dispatch
        through ``block_fns``, whose calls are never inlined).  A
        resync-armed warm trial's lean code inlines too; the resync compare
        does not read ``state.ret``, and a rung inside an inlined call is
        overshot.  Lean code writes its frame back before the real call
        (see :meth:`_gen_defined_call`).
        """
        if vn is not None:
            emit = vn.locals.inlined(inst, emit)
        d = regs.get(id(inst))
        args = [self._expr(a, regs) for a in inst.operands]
        leaf = self.cm.cfuncs[cfi]
        lregs = dict(self._leaf_regs[cfi])
        lregs.update((id(p), a) for p, a in zip(leaf.fn.args, args))
        blocks = leaf.fn.blocks
        # a fast copy's guard holds every inline guard of its loop
        fast = vn is not None and vn.fast is not None
        arm = emit if fast else lambda line: emit("    " + line)
        inline = variant._replace(inject=None)
        pending = 0 if vn is None else vn.pending
        if not fast:
            test = f"_dok and _ij != {cfi}" if vn is None else f"_in{cfi}"
            emit(f"    if {test} and {_plus(pending)} != _ca:")
        order = list(range(len(blocks)))
        shared = self._leaf(cfi)
        placement = shared.placement
        # the injectable forms emit only a one-block leaf straight-line
        straight = shared.prefix if vn is not None or len(blocks) == 1 else None

        def ret(value: Optional[str], out) -> None:
            if vn is not None:
                vn.settle(out)
                if d is not None:  # a move the call site's names may drop
                    vn.locals.move([(d, value)], out)
                if straight != _RETURNS:
                    out("    break")
                return
            line = f"    {d} = {value}" if d is not None else ""
            if straight != _RETURNS:
                line = f"{line}; break" if line else "    break"
            if line:
                out(line)

        with _arm(vn):
            if straight is None:
                if vn is not None:
                    vn.settle(arm)
                arm(f"    q{cfi}_bi = 0")
            self._gen_dispatch(
                leaf, order, placement, lregs, arm, f"q{cfi}_bi", None, ret, inline,
                {} if fast else dict.fromkeys(order, _HANG), vn, straight=straight,
                counted=shared.counted if vn is not None else None,
            )
        if fast:
            vn.called()
            return
        emit("    else:")
        self._gen_defined_call(
            inst, cfi, d, args, arm, variant, pending,
            spill=None if vn is None else vn.locals,
        )
        if vn is not None:
            vn.called()

    def _leaf_prefix(
        self, leaf: CompiledFunction, placement: Tuple[List[int], Dict[int, int]]
    ) -> Optional[int]:
        """Whether an inlined leaf's blocks before its first loop header
        can run straight-line, and where they end (the ``straight`` of
        :meth:`_gen_dispatch`): the loop header they fall into,
        :data:`_RETURNS` when the leaf has no loop and its one ``ret`` ends
        the chain of joins after its entry, or None when a ``ret`` or an
        edge to a dispatch target sits inside a branch arm of those
        blocks, and the leaf dispatches from its entry."""
        index = self._block_index[leaf.index]
        blocks = leaf.fn.blocks
        targets, joins = placement
        if any(blocks[0] in b.successors() for b in blocks):
            return None  # the entry heads a loop
        if targets == [0]:
            chain = [0]
            while chain[-1] in joins:
                chain.append(joins[chain[-1]])
            rets = {bi for bi, b in enumerate(blocks) if isinstance(b.terminator, RetInst)}
            return _RETURNS if rets <= {chain[-1]} else None
        entered = set()
        work: List[Tuple[int, Optional[int]]] = [(0, None)]
        while work:
            bi, follow = work.pop()
            if isinstance(blocks[bi].terminator, RetInst):
                return None
            join = joins.get(bi)
            inner = follow if join is None else join
            if join is not None:
                work.append((join, follow))
            for succ in blocks[bi].successors():
                k = index[id(succ)]
                if k in targets:
                    entered.add((k, inner))
                elif k != inner:
                    work.append((k, inner))
        if len(entered) == 1:
            ((k, inner),) = entered
            if inner is None:
                return k
        return None

    # -- injection epilogue -----------------------------------------------------------------

    @staticmethod
    def _gen_slot_load(inject: Optional[Inject], emit) -> None:
        """The guards' copy of the injected slot, in a shared variant."""
        if inject is not None and inject[1] is None:
            emit("    _s = state.inj_slot")

    def _gen_guarded_injection(
        self, inst: Instruction, regs: Dict[int, str], emit, inject: Optional[Inject]
    ) -> None:
        """``inst``'s injection epilogue, if ``inject`` has one for it: in
        a shared variant behind the guard that selects it as the site
        (``_s``, the injected slot)."""
        record = self.cm.records.get(id(inst))
        if inject is None or record is None:
            return
        mode, slot = inject
        if slot is None:
            emit(f"    if _s == {record.slot}:")
            self._gen_injection(inst, regs, lambda line: emit("    " + line), mode)
        elif slot == record.slot:
            self._gen_injection(inst, regs, emit, mode)

    def _gen_injection(
        self, inst: Instruction, regs: Dict[int, str], emit, mode: str
    ) -> None:
        reg = regs[id(inst)]
        emit("    state.inj_seen = _k = state.inj_seen + 1")
        if mode == "multi":
            # Multi-shot arming (intermittent/persistent models): a
            # model-supplied predicate decides per execution.
            emit("    if state.inj_fire(_k):")
        else:
            # One firing at the sampled occurrence; a rollback disarms it
            # by zeroing inj_occ.
            emit("    if _k == state.inj_occ:")
        emit(f"        {reg} = state.inj_corrupt({reg})")
        emit("        state.inj_hit = True")

    # -- per-instruction codegen ---------------------------------------------------------------

    def _gen_instruction(
        self,
        inst: Instruction,
        regs: Dict[int, str],
        emit,
        local: bool = False,
        variant: Optional[Variant] = None,
        vn: Optional[_Numbering] = None,
        nonneg: bool = False,
    ) -> None:
        """One instruction.  ``local`` marks operands that are Python
        locals (region code): memory
        accesses index ``cells`` by the address register and a load and
        an integer wrap work on the destination itself.  ``nonneg`` says
        a memory access's address is a constant at or above 0, which needs
        no ``< 0`` test.  Block functions read each operand from the frame
        list once into a temporary
        (``_a``, ``_v``, ``_r``), because a second ``f[k]`` read costs more
        than the temporary.  Region code (``variant``, its form) also
        writes the cycle counter back around calls (see
        :meth:`_gen_counted_call`) and inlines leaf calls; numbered region
        code (``vn``) emits what :meth:`_gen_numbered` makes of it."""
        if vn is not None and self._gen_numbered(inst, regs, emit, vn):
            return
        e = lambda v: self._expr(v, regs)
        if isinstance(inst, BinaryOperator):
            self._gen_binop(inst, regs, emit, local)
            return
        d = regs.get(id(inst))
        if isinstance(inst, ICmpInst):
            op = _ICMP[inst.predicate]
            emit(f"    {d} = {e(inst.operands[0])} {op} {e(inst.operands[1])}")
            return
        if isinstance(inst, FCmpInst):
            a, b = e(inst.operands[0]), e(inst.operands[1])
            if inst.predicate == "one":
                # ordered != : false when either side is NaN
                emit(f"    _a = {a}; _b = {b}")
                emit(f"    {d} = _a == _a and _b == _b and _a != _b")
            else:
                op = _FCMP[inst.predicate]
                emit(f"    {d} = {a} {op} {b}")
            return
        if isinstance(inst, SelectInst):
            c, t, f_ = (e(o) for o in inst.operands)
            emit(f"    {d} = {t} if {c} else {f_}")
            return
        if isinstance(inst, CastInst):
            self._gen_cast(inst, regs, emit, local)
            return
        if isinstance(inst, GEPInst):
            emit(f"    {d} = {e(inst.base)} + {e(inst.index)}")
            return
        if isinstance(inst, AllocaInst):
            emit(f"    {d} = state.alloc({inst.cell_count})")
            return
        if isinstance(inst, (LoadInst, StoreInst, AtomicRMWInst)):
            if local:
                a = e(inst.pointer)
            else:
                a = "_a"
                emit(f"    _a = {e(inst.pointer)}")
            if not nonneg:
                emit(f"    if {a} < 0: state.trap_mem({a})")
        if isinstance(inst, LoadInst):
            v = d if local else "_v"
            emit(f"    try: {v} = cells[{a}]")
            emit(f"    except IndexError: {v} = state.load_past({a})")
            emit(f"    if {v} is None: state.trap_mem({a})")
            if not local:
                emit(f"    {d} = _v")
            return
        if isinstance(inst, (StoreInst, AtomicRMWInst)):
            emit(f"    try: _old = cells[{a}]")
            emit(f"    except IndexError: _old = state.store_past({a})")
            emit(f"    if _old is None: state.trap_mem({a})")
            if isinstance(inst, StoreInst):
                emit(f"    cells[{a}] = {e(inst.value)}")
            else:
                emit(f"    cells[{a}] = _old + {e(inst.value)}")
                emit(f"    {d} = _old")
            return
        if isinstance(inst, CallInst):
            self._gen_call(inst, regs, emit, variant, vn)
            return
        raise InterpreterBug(f"no codegen for {inst!r}")

    def _gen_numbered(
        self, inst: Instruction, regs: Dict[int, str], emit, vn: _Numbering
    ) -> bool:
        """``inst`` in numbered region code, where its value number
        changes what it emits (see :class:`_Numbering`): a pure value or a
        load a register already holds is a copy of that register, a
        memory access to an address accessed before drops its ``< 0`` and
        ``None`` re-checks, and ``x + 1`` under a true ``x < y`` drops its
        wrap, and an access to a constant address at or above 0 drops its
        ``< 0`` test.  False when ``inst`` is left to
        :meth:`_gen_instruction`."""
        e = lambda v: self._expr(v, regs)
        d = regs.get(id(inst))
        shape = _pure_shape(inst)
        if shape is not None:
            key = (*shape, *(vn.of(e(o)) for o in inst.operands))
        elif isinstance(inst, (LoadInst, StoreInst, AtomicRMWInst)):
            a = e(inst.pointer)
            load = isinstance(inst, LoadInst)
            key = ("load", vn.of(a), vn.stores) if load else None
            accessed = ("addr", vn.of(a), vn.calls)
        else:
            return False
        held = None if key is None else vn.held(key)
        if held is not None:
            vn.locals.copy(d, held, emit)
            vn.bind(d, vn.of(held))
            return True
        if shape is not None:
            # the induction increment: x + 1 where x < y cannot wrap
            one = lambda v: isinstance(v, Constant) and v.value == 1
            wrapless = inst.opcode == "add" and any(map(one, inst.operands)) and (
                "below", key[-2] if one(inst.rhs) else key[-1], shape[2]
            ) in vn.facts
            expr = self._pure_expr(inst, regs, wrapless)
            if expr is not None:
                vn.locals.define(d, expr, emit)
            else:
                self._gen_instruction(inst, regs, emit, local=True)
            number = vn.define(key, d)
            if isinstance(inst, ICmpInst):
                vn.facts[("cmp", number)] = (inst.predicate, *key[-2:], shape[3])
            return True
        if accessed not in vn.facts:
            # a global's constant address is checked here, not every run
            self._gen_instruction(inst, regs, emit, local=True, nonneg=a.isdigit())
        elif load:
            emit(f"    try: {d} = cells[{a}]")
            emit(f"    except IndexError: {d} = state.load_past({a})")
        elif isinstance(inst, StoreInst):
            v = e(inst.value)
            emit(f"    try: cells[{a}] = {v}")
            emit(f"    except IndexError: state.store_past({a}); cells[{a}] = {v}")
        else:
            emit(f"    try: _old = cells[{a}]")
            emit(f"    except IndexError: _old = state.store_past({a})")
            emit(f"    cells[{a}] = _old + {e(inst.value)}")
            emit(f"    {d} = _old")
        if load:
            vn.define(key, d)
        else:
            vn.kill(call=False)
        vn.facts[accessed] = True
        return True

    def _pure_expr(
        self, inst: Instruction, regs: Dict[int, str], wrapless: bool
    ) -> Optional[str]:
        """The one expression numbered code assigns a pure value that
        cannot raise, which it may fold into the value's reader (see
        :class:`~repro.interp.regalloc.Locals`): a float
        ``fadd``/``fsub``/``fmul``, a compare but ``fcmp one``,
        ``select``, ``gep``, and an integer ``add`` whose wrap numbering
        drops (``wrapless``).  None for any other instruction."""
        e = lambda v: self._expr(v, regs)
        if isinstance(inst, BinaryOperator):
            sym = _FLOAT_OPS.get(inst.opcode, "+" if wrapless else None)
            return None if sym is None else f"{e(inst.lhs)} {sym} {e(inst.rhs)}"
        if isinstance(inst, ICmpInst):
            return f"{e(inst.operands[0])} {_ICMP[inst.predicate]} {e(inst.operands[1])}"
        if isinstance(inst, FCmpInst) and inst.predicate != "one":
            return f"{e(inst.operands[0])} {_FCMP[inst.predicate]} {e(inst.operands[1])}"
        if isinstance(inst, SelectInst):
            c, t, f_ = (e(o) for o in inst.operands)
            return f"{t} if {c} else {f_}"
        if isinstance(inst, GEPInst):
            return f"{e(inst.base)} + {e(inst.index)}"
        return None

    def _gen_binop(
        self, inst: BinaryOperator, regs: Dict[int, str], emit, local: bool
    ) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs[id(inst)]
        a, b = e(inst.lhs), e(inst.rhs)
        op = inst.opcode
        # integer wraps work on the destination itself in region code
        r = d if local else "_r"
        if op in _FLOAT_OPS:
            sym = _FLOAT_OPS[op]
            emit(f"    {d} = {a} {sym} {b}")
            return
        if op == "fdiv":
            emit(f"    _b = {b}")
            emit(f"    if _b != 0.0: {d} = {a} / _b")
            emit(f"    else:")
            emit(f"        _a = {a}")
            emit(f"        {d} = _INF if _a > 0 else (-_INF if _a < 0 else _NAN)")
            return
        if op == "frem":
            emit(f"    _b = {b}")
            emit(f"    {d} = _fmod({a}, _b) if _b != 0.0 else _NAN")
            return
        bits = inst.type.bits  # type: ignore[attr-defined]
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        span = 1 << bits
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            emit(f"    {r} = {a} {sym} {b}")
            emit(f"    if {r} > {hi} or {r} < {lo}: {r} = (({r} - {lo}) % {span}) + {lo}")
            if not local:
                emit(f"    {d} = _r")
            return
        if op in ("sdiv", "srem"):
            emit(f"    _a = {a}; _b = {b}")
            emit("    if _b == 0: state.trap_div()")
            emit("    _q = abs(_a) // abs(_b)")
            emit("    if (_a < 0) != (_b < 0): _q = -_q")
            if op == "sdiv":
                emit(f"    if _q > {hi} or _q < {lo}: _q = ((_q - {lo}) % {span}) + {lo}")
                emit(f"    {d} = _q")
            else:
                emit(f"    {d} = _a - _q * _b")
            return
        if op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            emit(f"    {d} = {a} {sym} {b}")
            return
        if op == "shl":
            emit(f"    {r} = {a} << ({b} & {bits - 1})")
            emit(f"    if {r} > {hi} or {r} < {lo}: {r} = (({r} - {lo}) % {span}) + {lo}")
            if not local:
                emit(f"    {d} = _r")
            return
        if op == "lshr":
            emit(f"    {r} = ({a} & {span - 1}) >> ({b} & {bits - 1})")
            emit(f"    if {r} > {hi}: {r} -= {span}")
            if not local:
                emit(f"    {d} = _r")
            return
        if op == "ashr":
            emit(f"    {d} = {a} >> ({b} & {bits - 1})")
            return
        raise InterpreterBug(f"no codegen for binop {op}")

    def _gen_cast(
        self, inst: CastInst, regs: Dict[int, str], emit, local: bool
    ) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs[id(inst)]
        a = e(inst.value)
        op = inst.opcode
        if op == "sitofp":
            emit(f"    {d} = float({a})")
            return
        if op == "fptosi":
            bits = inst.type.bits  # type: ignore[attr-defined]
            lo = -(1 << (bits - 1))
            hi = (1 << (bits - 1)) - 1
            emit(f"    _a = {a}")
            emit(f"    if _a != _a or _a > {float(hi)} or _a < {float(lo)}: state.trap_fptosi()")
            emit(f"    {d} = int(_a)")
            return
        src_bits = inst.value.type.bits  # type: ignore[attr-defined]
        if op == "zext":
            if src_bits == 1:
                emit(f"    {d} = 1 if {a} else 0")
            else:
                emit(f"    {d} = {a} & {(1 << src_bits) - 1}")
            return
        if op == "sext":
            if src_bits == 1:
                emit(f"    {d} = -1 if {a} else 0")
            else:
                emit(f"    {d} = {a}")
            return
        if op == "trunc":
            dst_bits = inst.type.bits  # type: ignore[attr-defined]
            if dst_bits == 1:
                emit(f"    {d} = bool({a} & 1)")
            else:
                lo = -(1 << (dst_bits - 1))
                span = 1 << dst_bits
                r = d if local else "_r"
                emit(f"    {r} = {a} & {span - 1}")
                emit(f"    if {r} > {-lo - 1}: {r} -= {span}")
                if not local:
                    emit(f"    {d} = _r")
            return
        if op == "bitcast":
            if inst.type.is_float() and inst.value.type.is_integer():
                emit(f"    {d} = _i2f({a})")
            elif inst.type.is_integer() and inst.value.type.is_float():
                emit(f"    {d} = _f2i({a})")
            else:
                emit(f"    {d} = {a}")
            return
        raise InterpreterBug(f"no codegen for cast {op}")

    def _gen_call(
        self, inst: CallInst, regs: Dict[int, str], emit, variant: Optional[Variant],
        vn: Optional[_Numbering] = None,
    ) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs.get(id(inst))
        callee = inst.callee
        args = [e(a) for a in inst.operands]
        # Region code counts cycles in ``_c`` and inlines leaves.
        region = variant is not None
        pending = 0 if vn is None else vn.pending
        if not callee.is_declaration:
            cfi = self.cm.get_function_index(callee.name)
            if region and cfi in self._leaf_regs:
                self._gen_inlined_call(inst, cfi, regs, emit, variant, vn)
                return
            self._gen_defined_call(
                inst, cfi, d, args, emit, variant, pending, vn,
                spill=None if vn is None else vn.locals,
            )
            if vn is not None:
                vn.called()
            return
        name = callee.name
        if name.startswith("ipas.check"):
            # One site id per check instruction, however many variants
            # (injected, region, resume) compile it again.
            site = self._check_site.get(id(inst))
            if site is None:
                site = self._check_site[id(inst)] = len(self.cm.check_sites)
                fn = inst.function
                block = inst.parent
                checked = inst.operands[0]
                self.cm.check_sites.append(
                    (
                        fn.name if fn is not None else "?",
                        block.name if block is not None else "?",
                        name,
                        getattr(checked, "name", "") or "<unnamed>",
                    )
                )
            if self._dropped(inst, regs, vn):
                return  # a value compared with itself: the check cannot fire
            emit(f"    _x = {args[0]}; _y = {args[1]}")
            emit(
                "    if _x != _y and not (_x != _x and _y != _y): "
                f"state.check_failed({site})"
            )
            return
        math_fn = _MATH_INTRINSICS.get(name)
        if math_fn is not None:
            emit(f"    {d} = {math_fn}({', '.join(args)})")
            return
        if name == "print_f64" or name == "print_i64":
            emit(f"    state.io_print({args[0]})")
            return
        if name.startswith("mpi_"):
            self._gen_counted_call(
                f"state.{name}({', '.join(args)})", d, emit, region, pending, vn
            )
            if vn is not None:
                vn.called()
            return
        raise InterpreterBug(f"no runtime binding for intrinsic {name}")

    def _chains(self, insts: List[Instruction], regs: Dict[int, str], vn: _Numbering) -> bool:
        """Whether a counted call followed by ``insts`` may leave ``_c``
        None: the first of ``insts`` that numbered code (``vn``) emits
        something for is a counted call too.  Numbered code emits nothing
        for a pure value a register already holds, every operand numbered,
        nor for a check whose two operands have one number
        (:meth:`_dropped`).  The call changes no fact these read but its
        result's, which none holds yet, and leaves no load held.  The
        values skipped are bound in a scope dropped on return."""
        with vn.facts.scope():
            for inst in insts:
                shape = _pure_shape(inst)
                check = isinstance(inst, CallInst) and inst.callee.name.startswith("ipas.check")
                if shape is None and not check:
                    return self._counted(inst)
                operands = inst.operands if shape is not None else inst.operands[:2]
                numbers = [vn.facts.get(self._expr(o, regs)) for o in operands]
                if None in numbers:
                    return False
                if check:
                    if numbers[0] != numbers[1]:
                        return False
                    continue
                held = vn.held((*shape, *numbers))
                if held is None:
                    return False
                vn.bind(regs[id(inst)], vn.facts[held])
            return False

    def _dropped(
        self, inst: Instruction, regs: Dict[int, str], vn: Optional[_Numbering]
    ) -> bool:
        """Whether numbered code (``vn``) leaves out ``inst``: a duplication
        check whose two operands have one number cannot fire."""
        if vn is None or not isinstance(inst, CallInst):
            return False
        if not inst.callee.name.startswith("ipas.check"):
            return False
        a, b = (self._expr(o, regs) for o in inst.operands[:2])
        return vn.of(a) == vn.of(b)

    def _gen_defined_call(
        self, inst: CallInst, cfi: int, d: Optional[str], args: List[str],
        emit, variant: Optional[Variant], pending: int = 0,
        vn: Optional[_Numbering] = None, spill: Optional[Frame] = None,
    ) -> None:
        """The counted ``state.call`` of the defined function ``cfi``, in
        region code of ``variant``'s form or (None) a block function,
        ``pending`` numbered code's pending charge and ``vn`` its
        numbering where the call may chain (see :meth:`_gen_counted_call`).
        Lean code (``spill``, its frame) first spills for a run that
        tracks its frames (``_rec``, see :meth:`_gen_region`): it sets
        the frame's tracking record to ``(block, calls made before this
        one)``, as the per-block loop has it when the callee counts one
        more, and writes back the slots live after the call that region
        code assigns."""
        arg_tuple = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
        if spill is not None:
            block = inst.parent
            k = _defined_calls(block.instructions).index(inst)
            writes = spill.frame_writes(spill.call_writes(inst))
            bi = spill.index[id(block)]
            emit(f"    if _rec: {writes}_rec[1] = {bi}; _rec[2] = {k}")
        self._gen_counted_call(
            f"state.call({cfi}, {arg_tuple})", d, emit, variant is not None, pending, vn
        )

    @staticmethod
    def _gen_counted_call(
        call: str, d: Optional[str], emit, local: bool, pending: int = 0,
        vn: Optional[_Numbering] = None,
    ) -> None:
        """A call that may run other compiled code or read the run state.
        Region code keeps its cycle count in the local ``_c``, so it writes
        the count back first (``_c`` plus numbered code's ``pending``
        charge) and re-reads it after; ``_c`` is ``None`` meanwhile, so an
        exception out of the callee keeps the callee's count (see
        :meth:`_gen_region`).  In numbered code (``vn``) a counted call
        followed by another one in its block leaves ``_c`` None, and the
        next one finds the count where the first left it."""
        if local and not (vn is not None and vn.uncounted):
            emit(f"    state.cycles = {_plus(pending)}; _c = None")
        emit(f"    {d} = {call}" if d is not None else f"    {call}")
        if vn is not None:
            vn.uncounted = vn.chained
            if vn.uncounted:
                return
        if local:
            emit("    _c = state.cycles")

    # -- terminators --------------------------------------------------------------------------

    def _gen_terminator(
        self,
        inst: Instruction,
        regs: Dict[int, str],
        emit,
        leave: Callable[[BasicBlock, Callable], None],
        ret: Optional[Callable[[Optional[str], Callable], None]] = None,
        fall: bool = False,
        vn: Optional[_Numbering] = None,
        frame: Optional[Frame] = None,
    ) -> None:
        """``leave(target, emit)`` emits the transfer to a successor block
        through ``emit`` (which carries the arm's indentation): ``return k``
        from a block function; inside a region function ``bi = k;
        continue``, an exit, the inlined successor itself, or nothing, for
        the join control falls into.  ``fall`` says that an arm may fall
        through: a conditional branch then puts its else arm under
        ``else:`` (an empty then arm is ``pass``, an empty else arm left
        out).  ``ret(value, emit)``, when given, emits a ``ret`` of the
        rendered ``value`` (None for ``ret void``) for an inlined leaf;
        otherwise a ``ret`` sets ``state.ret`` and returns -1.  Numbered
        code (``vn``) numbers each arm in a scope that knows which way the
        branch went."""
        e = lambda v: self._expr(v, regs)
        block = inst.parent
        if isinstance(inst, RetInst):
            value = None if inst.return_value is None else e(inst.return_value)
            if ret is not None:
                ret(value, emit)
                return
            emit(f"    state.ret = {value}")
            emit("    return -1")
            return
        if isinstance(inst, UnreachableInst):
            emit("    state.trap_unreachable()")
            if ret is None:
                emit("    return -1")
            return
        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                target = inst.targets[0]
                self._gen_edge_copies(block, target, regs, emit, vn, frame)
                leave(target, emit)
                return
            cond = inst.condition
            assert cond is not None
            then_b, else_b = inst.targets
            c = e(cond)
            if vn is not None and vn.fast is not None and block is vn.fast.header:
                with vn.arm(c, True):  # the fast copy's ``range`` tests it
                    self._gen_edge_copies(block, then_b, regs, emit, vn, frame)
                    leave(then_b, emit)
                return
            emit(f"    if {c}:")
            arm = lambda line: emit("    " + line)
            if not fall:
                with _arm(vn, c, True):
                    self._gen_edge_copies(block, then_b, regs, arm, vn, frame)
                    leave(then_b, arm)
                with _arm(vn, c, False):
                    self._gen_edge_copies(block, else_b, regs, emit, vn, frame)
                    leave(else_b, emit)
                return
            then_lines: List[str] = []
            with _arm(vn, c, True):
                self._gen_edge_copies(block, then_b, regs, then_lines.append, vn, frame)
                leave(then_b, then_lines.append)
            for line in then_lines or ["    pass"]:
                arm(line)
            # a numbered arm that emits a member keeps its ``else:`` even
            # when only the profiled twin's profile lines fill it (see
            # :func:`~repro.interp.regalloc.fill_empty_suites`)
            emitted = 0 if vn is None else vn.emitted
            else_lines: List[str] = []
            with _arm(vn, c, False):
                self._gen_edge_copies(block, else_b, regs, else_lines.append, vn, frame)
                leave(else_b, else_lines.append)
            if vn is not None and vn.emitted > emitted and not else_lines:
                else_lines.append("    pass")
            if else_lines:
                emit("    else:")
                for line in else_lines:
                    arm(line)
            return
        raise InterpreterBug(f"no codegen for terminator {inst!r}")

    def _gen_edge_copies(
        self, pred: BasicBlock, succ: BasicBlock, regs: Dict[int, str], emit,
        vn: Optional[_Numbering] = None, frame: Optional[Frame] = None,
    ) -> None:
        """Parallel phi copies on the edge pred -> succ (one tuple
        assignment: Python evaluates every source before the first store),
        or the moves ``frame`` makes (numbered code's, ``vn.locals``, in
        its inlined leaves too).  Numbered code gives each phi a value of
        its own."""
        phis = succ.phis()
        if vn is not None and vn.fast is not None and succ is vn.fast.header:
            phis = [phi for phi in phis if phi is not vn.fast.phi]  # ``range`` moves it
        if not phis:
            return
        srcs = [self._expr(phi.incoming_for_block(pred), regs) for phi in phis]
        if vn is not None:
            frame = vn.locals
        if frame is None:
            emit(f"    {', '.join(regs[id(phi)] for phi in phis)} = {', '.join(srcs)}")
            return
        frame.edge(
            pred, succ, [(phi, regs[id(phi)], src) for phi, src in zip(phis, srcs)], emit
        )
        if vn is not None:
            for phi in phis:
                vn.bind(regs[id(phi)])


#: generated Python operators of the float ops and compares that have one
_FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

#: intrinsic name -> name of the guarded runtime helper in EXEC_GLOBALS
_MATH_INTRINSICS = {
    "sqrt": "_sqrt",
    "fabs": "_fabs",
    "sin": "_sin",
    "cos": "_cos",
    "exp": "_exp",
    "log": "_log",
    "pow": "_pow",
    "floor": "_floor",
    "fmin": "_fmin",
    "fmax": "_fmax",
}
