"""Counted loops: the innermost loops lean and profiled region code also
runs as ``for i in range(i, b)`` (see ``_Compiler._gen_dispatch``).

A *counted loop* is an innermost natural loop whose header ends in
``br (icmp slt i, b), body, exit`` where

* ``i`` is a phi of the header fed by ``i + 1`` from the loop's single
  latch,
* ``b`` is loop-invariant (a constant, an argument or a value defined
  outside the loop), and
* the header's edge to ``exit`` is the loop's only way out.

Its *fast copy* runs every iteration but the last header visit, which
the checked loop after it makes::

    if b - i >= MIN_TRIPS and <i, b ints> [and every inlined call inlines]
            and _c + R * (b - i) <= _bud:
        for i in range(i, b):
            <the header's other instructions, the body>
        i = b
    <the checked loop>

``R`` is the costliest iteration: the header and the most expensive
path through the body, an inlined loop-free leaf's costliest path
included.  The region budget ``_bud`` is never above the hang budget, a
tripping trial's flip (its golden cycle less one) or a resync-armed
trial's next rung, so while ``_c + R * (b - i)`` stays within it no
charge of the loop reaches any of them: the fast body makes no test
point, no leaf hang test and no real call.  Every inlined call's guard
holds for the whole loop when ``_in{k}`` does: the other half of that
guard, ``_c != _ca``, makes real only the call a tripping trial's flip
lies in, and a loop whose charges stay below the flip cycle holds no
such call.  It keeps every charge and every memory, trap and wrap
check, so a trap inside it leaves with the per-block count.  ``i + 1``
cannot wrap under ``i < b``, and ``range`` yields ints, so ``i`` must
start as one: a value from a wild store can be a float or a bool, which
runs the checked loop (the guard tests ``b``'s type unless it is a
constant, and ``i``'s unless it enters the loop only as constants).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence

from ..ir.block import BasicBlock
from ..ir.instructions import (
    BinaryOperator, BranchInst, ICmpInst, Instruction, PhiNode, UnreachableInst,
)
from ..ir.values import Argument, Constant, Value


#: the fewest iterations a fast copy runs: setting up a ``for`` over a
#: ``range`` costs about what four checked iterations spend on their budget
#: test, compare, increment and dispatch, so a shorter trip runs the checked
#: loop alone (fft's butterfly makes three per entry)
MIN_TRIPS = 5


class Counted(NamedTuple):
    """One counted loop of a function."""

    header: BasicBlock
    blocks: FrozenSet[BasicBlock]
    #: the induction variable ``i`` and its increment ``i + 1``
    phi: PhiNode
    step: BinaryOperator
    #: the header's ``icmp slt i, b`` and ``b``
    cond: ICmpInst
    bound: Value
    #: ``R``, the largest charge one iteration can make
    cost: int
    #: the leaves whose calls the body inlines, by function index
    leaves: FrozenSet[int]
    #: ids of the values the fast copy computes but emits nothing for:
    #: the compare when only the header's branch reads it, the increment
    #: when only ``i`` does (``range`` makes both)
    silent: FrozenSet[int]
    #: ``i`` enters the loop only as int constants, so it is an int
    #: whatever memory holds (its increment, and a corrupter of an int,
    #: keep it one)
    int_start: bool


def longest(
    start: BasicBlock, succs: Callable[[BasicBlock], Sequence[BasicBlock]],
    cost: Callable[[BasicBlock], Optional[int]],
) -> Optional[int]:
    """The costliest path from ``start`` along ``succs`` (a block's own
    ``cost`` included), or None when a path loops or a block's cost is
    None."""
    memo: Dict[int, Optional[int]] = {}
    active = set()

    def walk(block: BasicBlock) -> Optional[int]:
        key = id(block)
        if key in memo:
            return memo[key]
        if key in active:
            return None
        active.add(key)
        own = cost(block)
        rest = [walk(s) for s in succs(block)]
        active.discard(key)
        got = None if own is None or None in rest else own + max(rest, default=0)
        memo[key] = got
        return got

    return walk(start)


def counted_loop(
    members: Sequence[BasicBlock], charge: Callable[[BasicBlock], Optional[int]],
    leaves: Callable[[Instruction], Optional[int]],
) -> Optional[Counted]:
    """The counted loop of the innermost loop ``members`` (header first),
    or None when it is none.  ``charge(block)`` is the most a block can
    charge, its own cost and that of the leaves it inlines, None where
    the fast copy cannot run it (a call that may be real); ``leaves``
    names the leaf an instruction inlines."""
    header = members[0]
    inside = frozenset(members)
    term = header.terminator
    if not (isinstance(term, BranchInst) and term.is_conditional):
        return None
    body, exit_ = term.targets
    cond = term.condition
    if body not in inside or exit_ in inside or body is header:
        return None
    if not (
        isinstance(cond, ICmpInst) and cond.parent is header and cond.predicate == "slt"
    ):
        return None
    phi, bound = cond.operands
    if not (isinstance(phi, PhiNode) and phi.parent is header and phi.type.is_integer()):
        return None
    if phi.type.bits < 2 or not _invariant(bound, inside):
        return None
    latches = [b for b in members if header in b.successors()]
    if len(latches) != 1:
        return None
    (latch,) = latches
    step = phi.incoming_for_block(latch)
    if not (
        isinstance(step, BinaryOperator) and step.opcode == "add"
        and step.type == phi.type
        and any(o is phi for o in step.operands)
        and any(isinstance(o, Constant) and o.value == 1 for o in step.operands)
    ):
        return None
    for block in members:
        if block is header:
            continue
        if isinstance(block.terminator, UnreachableInst):
            continue
        if not isinstance(block.terminator, BranchInst):
            return None
        if any(s not in inside for s in block.successors()):
            return None
    forward = lambda b: [s for s in b.successors() if s in inside and s is not header]
    cost = longest(header, lambda b: forward(b) if b is not header else [body], charge)
    if cost is None:
        return None
    inlined = frozenset(
        cfi for b in members for i in b.instructions for cfi in (leaves(i),)
        if cfi is not None
    )
    silent = frozenset(
        id(value) for value, user in ((cond, term), (step, phi))
        if all(u is user for u, _ in value.uses)
    )
    int_start = all(
        isinstance(v, Constant) for v, pred in phi.incoming() if pred not in inside
    )
    return Counted(header, inside, phi, step, cond, bound, cost, inlined, silent, int_start)


def innermost_loops(loops: Sequence[tuple]) -> List[tuple]:
    """The loops of ``loops`` (header, members) that hold no other."""
    return [
        (h, members) for h, members in loops
        if not any(k != h and k in members for k, _ in loops)
    ]


def _invariant(value: Value, inside: FrozenSet[BasicBlock]) -> bool:
    """``value`` is an integer the loop ``inside`` does not define."""
    return value.type.is_integer() and (
        isinstance(value, (Constant, Argument))
        or isinstance(value, Instruction) and value.parent not in inside
    )


def guard(loop: Counted, i: str, b: str, count: str) -> str:
    """The fast copy's entry test, ``i`` and ``b`` rendered, ``count`` the
    cycle count at the header's top: :data:`MIN_TRIPS` iterations to go,
    ``i`` and ``b`` ints, the inline guards of the leaves the body calls,
    and the loop's costliest charge within the region budget."""
    tests = [f"{b} - {i} >= {MIN_TRIPS}"]
    if not loop.int_start:
        tests.append(f"type({i}) is int")
    if not b.lstrip("-").isdigit():
        tests.append(f"type({b}) is int")
    tests += [f"_in{cfi}" for cfi in sorted(loop.leaves)]
    tests.append(f"{count} + {loop.cost} * ({b} - {i}) <= _bud")
    return "if " + " and ".join(tests) + ":"
