"""Where region code keeps its values and how it crosses the frame
boundary (see :class:`~repro.interp.compiler.CompiledModule` and
``_Compiler._gen_region``).

:func:`liveness` says which frame slots block-by-block execution may
still read.  :class:`Frame` turns it into the one rule every untracked
region form (lean, profiled and injectable) follows at its prologue,
exits, deopt exits and phi moves.  Lean region code and its profiled
twin also name each SSA value after its frame slot (``r12``) as they are
generated; :class:`Locals` then reads copies at their source, folds pure
values read once into their reader, lets a phi share one Python local
with the values that feed it where their live ranges do not interfere,
and turns the parallel moves left into single assignments.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import count
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction, LoadInst, PhiNode, RetInst
from ..ir.values import Value

if TYPE_CHECKING:
    from .compiler import CompiledFunction, Region, _Compiler, _Hoists


class Live(NamedTuple):
    """Slot liveness of one function, as block-by-block execution reads
    the frame (see :func:`liveness`)."""

    #: ids of the phis whose value some instruction reads, through other
    #: phis or directly
    useful: FrozenSet[int]
    #: block index -> the slots read on some path from its top (its phis
    #: assigned) before they are assigned again
    top: Dict[int, FrozenSet[int]]
    #: block index -> the same from its end, its successors' phi moves
    #: included
    out: Dict[int, FrozenSet[int]]


def liveness(fn: Function, slots: Dict[int, int], index: Dict[int, int]) -> Live:
    """Which slots ``fn`` may still read at each block top.  A phi that
    only other dead phis read is dead: its copies move a value nothing
    uses, so a stale slot there is never observed."""
    blocks = fn.blocks
    useful: Set[int] = set()
    work: List[PhiNode] = []

    def reach(value: Value) -> None:
        if isinstance(value, PhiNode) and id(value) not in useful:
            useful.add(id(value))
            work.append(value)

    gen: List[Set[int]] = []
    kill: List[Set[int]] = []
    for block in blocks:
        read: Set[int] = set()
        made: Set[int] = set()
        for inst in block.instructions:
            if isinstance(inst, PhiNode):
                continue
            for o in inst.operands:
                reach(o)
                if id(o) in slots and slots[id(o)] not in made:
                    read.add(slots[id(o)])
            if id(inst) in slots:
                made.add(slots[id(inst)])
        gen.append(read)
        kill.append(made)
    while work:
        for value in work.pop().operands:
            reach(value)
    phis = [{slots[id(p)] for p in b.phis()} for b in blocks]
    edges = [
        [
            (index[id(s)], {
                slots[id(v)] for p in s.phis() if id(p) in useful
                for v in (p.incoming_for_block(b),) if id(v) in slots
            })
            for s in b.successors()
        ]
        for b in blocks
    ]
    top: List[Set[int]] = [set() for _ in blocks]
    outs: List[Set[int]] = [set() for _ in blocks]
    changed = True
    while changed:
        changed = False
        for bi in reversed(range(len(blocks))):
            out: Set[int] = set()
            for si, moved in edges[bi]:
                out |= (top[si] - phis[si]) | moved
            outs[bi] = out
            new = gen[bi] | (out - kill[bi])
            if new != top[bi]:
                top[bi] = new
                changed = True
    return Live(
        frozenset(useful),
        {bi: frozenset(s) for bi, s in enumerate(top)},
        {bi: frozenset(s) for bi, s in enumerate(outs)},
    )


def live_after(
    live: Live, call: Instruction, slots: Dict[int, int], bi: int
) -> FrozenSet[int]:
    """The slots block-by-block execution may read after ``call``, an
    instruction of block ``bi``, before assigning them again: what a
    frame suspended in ``call`` still holds that matters.  The call's own
    slot is not among them (its return assigns it)."""
    insts = call.parent.instructions
    read = set(live.out[bi])
    for inst in reversed(insts[insts.index(call) + 1 :]):
        if id(inst) in slots:
            read.discard(slots[id(inst)])
        read.update(slots[id(o)] for o in inst.operands if id(o) in slots)
    read.discard(slots.get(id(call)))
    return frozenset(read)


#: a register of a region's own function in generated code (``r12``)
_REG = re.compile(r"\b(r\d+)\b")
#: an inlined leaf's local in generated code (``q3_12``)
_LEAF = re.compile(r"\bq\d+_\d+\b")
#: an identifier in a generated expression
_NAME = re.compile(r"\b[A-Za-z_]\w*\b")
#: what numbered code marks a line with until :meth:`Locals.finish`:
#: ``\x00`` the member it belongs to, ``\x01`` the inlined call it is part
#: of, ``\x02`` the value it computes and may fold, ``\x03`` the edge's
#: parallel move it is part of, ``\x04`` the prologue goes here
_MARK = re.compile(r"([\x00-\x04])([^\x00-\x04\n]*)")
_MARKED = re.compile(r"[\x00-\x04]")
#: a line marked other than with its member, one that computes a value
#: it may fold (its code, the value), and one of an inlined call (the call)
_SPECIAL_LINE = re.compile(r"^[^\n]*[\x01-\x04][^\n]*$", re.M)
_FOLD_LINE = re.compile(r"^([^\n\x00-\x04]*)\x02([^\x00-\x04\n]*)[^\n]*$", re.M)
_CALL_LINE = re.compile(r"^[^\n\x01]*\x01(\d+)[^\n]*$", re.M)
#: a member's mark
_TAG = re.compile(r"\x00[^\x00-\x04\n]*")
#: what numbered code ends each line of a counted loop's fast copy with
_FAST = "\x05"


def is_bump(line: str) -> bool:
    """Whether ``line`` is a profiled form's profile line."""
    return line.lstrip().startswith(("_p[", "_unbump("))


def without_profile(source: str) -> str:
    """A profiled form's ``source`` as its lean twin: no profile lines and
    no load of the profile (:func:`fill_empty_suites` left each suite that
    held only profile lines a ``pass``)."""
    return "".join(
        line for line in source.splitlines(True)
        if not is_bump(line) and line != "    _p = state.prof\n"
    )


def sequence(moves: List[Tuple[str, str]]) -> List[str]:
    """A parallel move (each destination gets its source's value as it was
    before any of them is written) as single assignments: a move goes once
    no other pending source reads its destination, and where every
    destination is still read, a source that reads another one goes to a
    temporary first, which takes one temporary per copy cycle."""
    pending = [(d, s) for d, s in moves if d != s]
    temps = count()
    lines = []
    while pending:
        reads = [set(_NAME.findall(s)) for _, s in pending]
        for i, (d, s) in enumerate(pending):
            if not any(d in r for j, r in enumerate(reads) if j != i):
                lines.append(f"{d} = {s}")
                del pending[i]
                break
        else:
            dsts = {d for d, _ in pending}
            i = next(i for i, r in enumerate(reads) if r & (dsts - {pending[i][0]}))
            temp = f"_t{next(temps)}"
            lines.append(f"{temp} = {pending[i][1]}")
            pending[i] = (pending[i][0], temp)
    return lines


def coalesce(
    pairs: Iterable[Tuple[int, int]], conflicts: Dict[int, Set[int]]
) -> List[Set[int]]:
    """The classes of slots that share a local: each pair's two classes
    join, in order, unless a member of one conflicts with a member of the
    other."""
    parent: Dict[int, int] = {}
    members: Dict[int, Set[int]] = {}
    clash: Dict[int, Set[int]] = {}

    def find(v: int) -> int:
        if v not in parent:
            parent[v] = v
            members[v] = {v}
            clash[v] = set(conflicts.get(v, ()))
        while parent[v] != v:
            v = parent[v]
        return v

    for x, y in pairs:
        a, b = find(x), find(y)
        if a == b or clash[a] & members[b] or clash[b] & members[a]:
            continue
        parent[b] = a
        members[a] |= members.pop(b)
        clash[a] |= clash.pop(b)
    return list(members.values())


def returned(call: Instruction) -> Optional[Instruction]:
    """The value an inlined leaf call's one ``ret`` returns, when the leaf
    has one ``ret`` and it returns one of the leaf's own values: its
    class may take the call's register (see :meth:`Locals._leaf_names`)."""
    rets = [b.terminator for b in call.callee.blocks if isinstance(b.terminator, RetInst)]
    if len(rets) == 1 and isinstance(rets[0].return_value, Instruction):
        return rets[0].return_value
    return None


def _find(text: str, name: str):
    """The offsets of ``name`` as a whole token in ``text``."""
    at = text.find(name)
    while at >= 0:
        end = at + len(name)
        if not (at and (text[at - 1].isalnum() or text[at - 1] == "_")) and not (
            end < len(text) and (text[end].isalnum() or text[end] == "_")
        ):
            yield at
        at = text.find(name, end)


def _member_at(text: str, at: int) -> Optional[str]:
    """The member mark of the line of ``text`` holding offset ``at``."""
    start = text.rfind("\n", 0, at) + 1
    end = text.find("\n", at)
    mark = text.find("\x00", start, len(text) if end < 0 else end)
    return None if mark < 0 else _MARK.match(text, mark).group(2)


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def fill_empty_suites(lines: List[str]) -> List[str]:
    """``lines`` with a ``pass`` ending each suite that holds nothing but
    profile lines, so a lean suite and its profiled twin differ only in
    those."""
    after: Dict[int, List[str]] = {}
    for i, line in enumerate(lines):
        if line.endswith(":"):
            indent = _indent(line)
            j = i + 1
            while j < len(lines) and is_bump(lines[j]) and _indent(lines[j]) > indent:
                j += 1
            if j == len(lines) or _indent(lines[j]) <= indent:
                after.setdefault(j - 1, []).append(" " * (indent + 4) + "pass")
    out: List[str] = []
    for i, line in enumerate(lines):
        out.append(line)
        out += after.get(i, ())
    return out


class Frame:
    """Where the forms of one region cross the frame boundary:
    region code keeps the region's values in locals, block-by-block
    execution reads the frame list, and :attr:`Live.top` says what it may
    read.  So

    * the prologue loads the slots live at any of the region's entries
      that its code reads or assigns;
    * an edge inside the region moves only the phis something reads
      (:attr:`Live.useful`): a dead phi may read a local no entry loads;
    * an exit to block ``k`` writes the slots live at ``k`` that region
      code assigns (:attr:`Region.written`) or that are ``k``'s phis, the
      latter from the value the edge moves;
    * a deopt exit at member ``k``'s top writes the slots live at ``k``
      that region code assigns;
    * lean code writes the slots live after a real call that region code
      assigns before making it (:meth:`call_writes`), when a warm trial
      tracks its frames: a golden resync compare inside the callee reads
      them.

    Every write reads a bound local: a slot live where the code writes
    it that this activation has not assigned was live at the entry the
    activation took, since no path from there assigned it, so the
    prologue loaded it.  A slot live after a call is read on some path from there,
    by region code, an exit's write-back or a deopt exit's, so
    :class:`Locals` keeps its value in its local across the call without
    counting the spill.  The injectable forms follow this rule as is,
    ``r12`` holding slot 12; :class:`Locals` adds what numbered code
    does."""

    def __init__(self, compiler: "_Compiler", cf: CompiledFunction, region: Region):
        self.fn = cf.fn
        self.slots = compiler._slot_of[cf.index]
        self.index = compiler._block_index[cf.index]
        self.live = compiler._live(cf)
        self.region = region
        self.members = frozenset(region.order)

    def frame_writes(self, slots) -> str:
        return "".join(f"f[{s}] = r{s}; " for s in slots)

    def exit_writes(self, k: int) -> List[int]:
        """The slots an exit to block ``k`` writes back to the frame: those
        ``k`` may read that region code assigns, its phis, which the exit
        edge writes, aside."""
        phis = {self.slots[id(p)] for p in self.fn.blocks[k].phis()}
        return sorted((self.live.top[k] - phis) & self.region.written)

    def top_writes(self, k: int) -> List[int]:
        """The slots a deopt exit at member ``k``'s top writes back."""
        return sorted(self.live.top[k] & self.region.written)

    def call_writes(self, call: Instruction) -> List[int]:
        """The slots lean code writes back before the real call ``call``
        (see :func:`live_after`)."""
        bi = self.index[id(call.parent)]
        return sorted(live_after(self.live, call, self.slots, bi) & self.region.written)

    def edge(
        self, pred: BasicBlock, succ: BasicBlock, moves: List[Tuple[PhiNode, str, str]], out
    ) -> None:
        """The phi moves ``(phi, its local, source)`` on the edge pred ->
        succ: an inlined leaf's all of them, a region edge's for the phis
        something reads, and an exit's into the frame for the phis its
        target may read."""
        inside = succ.parent is self.fn
        if inside:
            k = self.index[id(succ)]
            if k not in self.members:
                live = self.live.top[k]
                for phi, _, src in moves:
                    slot = self.slots[id(phi)]
                    if slot in live:
                        out(f"    f[{slot}] = {src}")
                return
            moves = [m for m in moves if id(m[0]) in self.live.useful]
        self.move([(d, s) for _, d, s in moves], out)

    def move(self, moves: List[Tuple[str, str]], out) -> None:
        """A parallel move as single assignments."""
        for line in sequence(moves):
            out(f"    {line}")

    def finish(self, lines: List[str]) -> str:
        """The generated ``lines`` as source, the prologue's mark line
        loading every slot live at an entry that they name."""
        text = "\n".join(lines) + "\n"
        named = set(_REG.findall(text))
        live = frozenset().union(*(self.live.top[k] for k in self.region.entries))
        loads = "".join(f"    r{s} = f[{s}]\n" for s in sorted(live) if f"r{s}" in named)
        return text.replace("\x04\n", loads, 1)


class Locals(Frame):
    """Which Python local holds each value in the numbered forms of one
    region (see :meth:`_Compiler._gen_region`): the profiled form, and
    the lean form, which is the profiled one less its profile lines
    (:func:`without_profile`).

    The form is generated once, naming each SSA value after its slot
    (``r12``) and marking what :meth:`solve` and :meth:`finish` need: the
    copies numbering finds (``d = held``, which emit nothing: ``d`` reads
    ``held``), the values it may fold (a pure value that cannot raise,
    computed in one line), every edge's parallel move, and every line's
    member and inlined call.  :meth:`solve` then

    * folds a foldable value whose one reader is a later line of its own
      member into that reader, parenthesised (operand order kept, so each
      float result is bitwise the same); one nothing reads disappears;
    * computes which locals region code may read at each member top, its
      phis assigned (reads of registers, copies' reads of their source,
      folded values' reads of their operands, the frame writes of
      :class:`Frame`), and what each definition's live set is;
    * coalesces each phi with the values that feed it on edges inside the
      region when no value of either class is live where the other class
      assigns one: they share one local, named after their lowest slot,
      and their move disappears;
    * does the same for the leaf each inlined call site runs, on the
      leaf's own slot liveness, site by site (:meth:`_leaf_names`): a
      leaf's copy of another of its locals reads it at its source, and
      the class of the value the leaf returns takes the call's register.

    :meth:`finish` renames the lines, emits the surviving moves of an
    edge one assignment each (:func:`sequence`) and the prologue, which
    loads what may be read at each entry, each entry its own.  Exits and
    deopt exits write what :class:`Frame` says, from whichever local,
    hoist or expression holds each value."""

    def __init__(self, compiler: "_Compiler", cf: CompiledFunction, region: Region):
        super().__init__(compiler, cf, region)
        #: copy register -> the register or hoist it reads
        self.aliases: Dict[str, str] = {}
        #: register -> its expression, for every value the form may fold
        self.foldable: Dict[str, str] = {}
        self.folded: Set[str] = set()
        #: inlined call site -> its leaf's copies of a hoist, local -> hoist
        self.leaf_hoists: Dict[int, Dict[str, str]] = {}
        #: inlined call site -> its leaf's copies of another of its locals
        self.leaf_aliases: Dict[int, Dict[str, str]] = {}
        #: inlined call site -> what the finished code writes for each of
        #: its leaf's locals (see :meth:`_leaf_names`)
        self.leaf_names: Dict[int, Dict[str, str]] = {}
        self._slot_of = compiler._slot_of
        self._func_index = compiler.cm.func_index
        self.loads: Dict[int, List[int]] = {}
        #: the region's hoists (see ``_Compiler._plan_hoists``)
        self.hoists: Optional[_Hoists] = None
        self._names: Dict[str, str] = {}
        self._rep: Dict[int, int] = {}
        #: the inlined calls and the edges' moves so far, by marker
        self.calls: List[Instruction] = []
        self.moves: List[List[Tuple[str, str]]] = []
        self.site = 0

    # -- generating ---------------------------------------------------------------

    def tagged(self, out, cfi: int, bi: int):
        """``out`` marking each line with member ``bi`` of function ``cfi``,
        unless a member inside it marked the line first."""
        mark = f"\x00{cfi}:{bi}"
        return lambda line: out(line if "\x00" in line else line + mark)

    def inlined(self, inst: Instruction, out):
        """``out`` marking each line as part of the inlined call ``inst``."""
        self.site = len(self.calls)
        self.calls.append(inst)
        return lambda line, _n=self.site: out(f"{line}\x01{_n}")

    def fast(self, out):
        """``out`` marking each line as part of a counted loop's fast copy
        (see :mod:`~repro.interp.counted`), which :meth:`solve` does not
        read: the copy runs what its checked loop runs, less its budget
        tests, real calls and the moves of ``i``, so the checked loop's
        folds and classes hold in it too, and ``i``'s assignments by the
        ``for`` and after it stand for the latch's move into ``i``."""
        return lambda line: out(line + _FAST)

    def copy(self, d: str, held: str, out) -> None:
        """``d`` is a copy of ``held``: a register of the region's function
        reads it at its source, and so does a leaf's local that copies a
        hoist or another local of the leaf, at this call site (each site
        names its leaf's locals itself, see :meth:`_leaf_names`); a leaf's
        copy of a register is assigned."""
        if d[0] == "r":
            self.aliases[d] = held
        elif held.startswith("_h"):
            self.leaf_hoists.setdefault(self.site, {})[d] = held
        elif _LEAF.fullmatch(held):
            self.leaf_aliases.setdefault(self.site, {})[d] = held
        else:
            out(f"    {d} = {held}")

    def define(self, d: str, expr: str, out) -> None:
        """``d = expr`` for a pure value that cannot raise."""
        if d[0] != "r":
            out(f"    {d} = {expr}")
        else:
            self.foldable[d] = expr
            out(f"    {d} = {expr}\x02{d}")

    def move(self, moves: List[Tuple[str, str]], out) -> None:
        """A parallel move (a region edge's, an inlined leaf's edge or
        ``ret``) marked, for :meth:`finish` to emit what coalescing leaves."""
        for d, s in moves:
            out(f"    {d} = {s}\x03{len(self.moves)}")
        self.moves.append(moves)

    # -- after generating -------------------------------------------------------------

    def name(self, reg: str) -> str:
        """What the finished code writes for the register ``reg``."""
        got = self._names.get(reg)
        if got is None:
            held = self.aliases.get(reg, reg)
            if held[0] != "r":
                got = held
            elif held in self.folded:
                got = f"({self.rename(self.foldable[held])})"
            else:
                slot = int(held[1:])
                got = f"r{self._rep.get(slot, slot)}"
            self._names[reg] = got
        return got

    def rename(self, text: str) -> str:
        parts = _REG.split(text)
        parts[1::2] = map(self.name, parts[1::2])
        return "".join(parts)

    def prologue(self) -> List[str]:
        """The header entry's loads and the outermost loop's invariants,
        then each other entry's extra loads and the invariants of the
        inner loops that hold it, outermost first."""
        region, loops = self.region, self.hoists.loops
        own = self.loads[region.header]
        lines = [f"    r{s} = f[{s}]" for s in own] + loops[region.header][1]
        test = "if"
        for k in region.entries:
            if k == region.header:
                continue
            body = [f"    r{s} = f[{s}]" for s in self.loads[k] if s not in own]
            for h, (members, invariants) in loops.items():
                if h != region.header and k in members:
                    body += invariants
            if body:
                lines.append(f"    {test} bi == {k}:")
                test = "elif"
                lines += ["    " + line for line in body]
        return lines

    def finish(self, lines: List[str]) -> str:
        """The generated ``lines`` as source: renamed, the folded values'
        own lines left out, the moves and the prologue emitted, no marks."""
        text = _SPECIAL_LINE.sub(self._special, "\n".join(lines).replace(_FAST, ""))
        text = _TAG.sub("", text)
        code = fill_empty_suites([line for line in text.split("\n") if line])
        return self.rename("\n".join(code) + "\n")

    def _special(self, m) -> str:
        """A line marked other than with its member, as code: an inlined
        call's with its site's names for its leaf's locals."""
        line = m.group(0)
        at = _MARKED.search(line).start()
        text = line[:at]
        marks = _MARK.findall(line, at)
        names = next((self.leaf_names[int(w)] for k, w in marks if k == "\x01"), None)
        site = (lambda t: t) if not names else (
            lambda t: _LEAF.sub(lambda q: names.get(q.group(0), q.group(0)), t)
        )
        for kind, what in marks:
            if kind == "\x04":
                return "\n".join(self.prologue())
            if kind == "\x02" and what in self.folded:
                return ""
            if kind == "\x03":
                moves = self.moves[int(what)]
                if moves is None:  # the group's first line emitted them all
                    return ""
                self.moves[int(what)] = None
                pad = text[: len(text) - len(text.lstrip())]
                return "\n".join(pad + move for move in sequence(
                    [(self.name(site(d)), self.rename(site(s))) for d, s in moves]
                ))
        return site(text)

    def solve(self, lines: List[str]) -> None:
        """Plan :meth:`finish` from the generated ``lines``."""
        invariants = [line for _, body in self.hoists.loops.values() for line in body]
        text = "\n".join(invariants + [line for line in lines if _FAST not in line])
        # A foldable value's own line names it twice (the assignment and
        # its mark); every other name of it or of a copy of it is a read.
        names = Counter(_REG.findall(text))
        copies: Dict[str, List[str]] = {}
        for d, held in self.aliases.items():
            copies.setdefault(held, []).append(d)
        for m in _FOLD_LINE.finditer(text):
            reg = m.group(2)
            regs = [reg] + copies.get(reg, [])
            reads = sum(names[r] for r in regs) - 2
            if reads == 0:
                self.folded.add(reg)
            elif reads == 1:
                at = next(a for r in regs for a in _find(text, r) if not m.start() <= a < m.end())
                if at > m.start() and _member_at(text, at) == _member_at(text, m.start()):
                    self.folded.add(reg)
        calls: Dict[int, List[str]] = {}
        for m in _CALL_LINE.finditer(text):
            calls.setdefault(int(m.group(1)), []).append(m.group(0))
        reads = {n: set(_REG.findall("\n".join(body))) for n, body in calls.items()}
        self._coalesce(reads)
        self.leaf_names = {n: self._leaf_names(n) for n in range(len(self.calls))}

    def _resolve(self, reg: str, memo: Dict[str, FrozenSet[int]]) -> FrozenSet[int]:
        """The slots whose locals a read of ``reg`` reads."""
        got = memo.get(reg)
        if got is None:
            held = self.aliases.get(reg, reg)
            if held[0] != "r":
                got = frozenset()
            elif held in self.folded:
                got = frozenset().union(
                    *(self._resolve(t, memo) for t in _REG.findall(self.foldable[held]))
                )
            else:
                got = frozenset((int(held[1:]),))
            memo[reg] = got
        return got

    def _coalesce(self, reads: Dict[int, Set[str]]) -> None:
        blocks = self.fn.blocks
        slots, index, useful = self.slots, self.index, self.live.useful
        memo: Dict[str, FrozenSet[int]] = {}

        def uses(values) -> Set[int]:
            got: Set[int] = set()
            for v in values:
                if id(v) in slots:
                    got |= self._resolve(f"r{slots[id(v)]}", memo)
            return got

        def regs(names) -> Set[int]:
            got: Set[int] = set()
            for reg in names:
                got |= self._resolve(reg, memo)
            return got

        # a fast copy's inlined calls, which solve does not read, aside
        call_of: Dict[int, int] = {}
        for n, inst in enumerate(self.calls):
            if n in reads:
                call_of.setdefault(id(inst), n)
        events: Dict[int, List[Tuple[Optional[int], Set[int], Set[int]]]] = {}
        out_uses: Dict[int, Set[int]] = {}
        succ_in: Dict[int, List[int]] = {}
        at_top: Dict[int, Set[int]] = {}
        phidefs: Dict[int, Set[int]] = {}
        points = self.region.bounds
        for bi in self.region.order:
            block = blocks[bi]
            phidefs[bi] = {slots[id(p)] for p in block.phis() if id(p) in useful}
            evs = []
            for inst in block.instructions:
                if isinstance(inst, PhiNode):
                    continue
                used = uses(inst.operands)
                reg = f"r{slots[id(inst)]}" if id(inst) in slots else None
                n = call_of.get(id(inst))
                if n is not None:
                    # the call's own register is assigned there, not read
                    used |= regs(reads.get(n, set()) - {reg})
                d = None
                if reg is not None:
                    if reg not in self.aliases and reg not in self.folded:
                        d = slots[id(inst)]
                # a load reads its address again after assigning its value,
                # and a leaf's value its inlined call returns is assigned
                # while the call reads what it reads
                extra = uses([inst.pointer]) if isinstance(inst, LoadInst) else set()
                if n is not None and returned(inst) is not None:
                    extra = used
                evs.append((d, used, extra))
            events[bi] = evs
            moved: Set[int] = set()
            succ_in[bi] = []
            for s in block.successors():
                k = index[id(s)]
                if k in self.members:
                    moved |= uses(p.incoming_for_block(block) for p in s.phis() if id(p) in useful)
                    succ_in[bi].append(k)
                else:
                    live = self.live.top[k]
                    moved |= uses(
                        p.incoming_for_block(block) for p in s.phis() if slots[id(p)] in live
                    )
                    moved |= regs(f"r{s_}" for s_ in self.exit_writes(k))
            out_uses[bi] = moved
            at_top[bi] = (
                regs(f"r{s}" for s in self.top_writes(bi)) if bi in points else set()
            )

        top: Dict[int, Set[int]] = {bi: set() for bi in self.region.order}

        def walk(bi: int, conflicts=None) -> Set[int]:
            live = set(out_uses[bi])
            for k in succ_in[bi]:
                live |= top[k] - phidefs[k]
            for d, used, extra in reversed(events[bi]):
                if d is not None:
                    if conflicts is not None:
                        conflicts.setdefault(d, set()).update(live, extra)
                    live.discard(d)
                live |= used
            return live | at_top[bi]

        changed = True
        while changed:
            changed = False
            for bi in self.region.order:
                new = walk(bi)
                if new != top[bi]:
                    top[bi] = new
                    changed = True
        conflicts: Dict[int, Set[int]] = {}
        for bi in self.region.order:
            walk(bi, conflicts)
            for p in phidefs[bi]:
                conflicts.setdefault(p, set()).update(top[bi])
        for k in self.region.entries:
            self.loads[k] = sorted(top[k])
            for v in top[k]:
                conflicts.setdefault(v, set()).update(top[k])

        pairs = []
        for bi in self.region.order:
            block = blocks[bi]
            for s in block.successors():
                if index[id(s)] not in self.members:
                    continue
                for p in s.phis():
                    x = p.incoming_for_block(block)
                    if id(p) not in useful or id(x) not in slots:
                        continue
                    held = self.aliases.get(f"r{slots[id(x)]}", f"r{slots[id(x)]}")
                    if held[0] != "r" or held in self.folded:
                        continue
                    pairs.append((slots[id(p)], int(held[1:])))
        for group in coalesce(pairs, conflicts):
            rep = min(group)
            for v in group:
                self._rep[v] = rep

    def _leaf_names(self, n: int) -> Dict[str, str]:
        """What the finished code writes for each local of the leaf that
        inlined call site ``n`` runs (every site names them itself, and
        its lines are the only ones that read them): a copy of a hoist
        the hoist, a copy of another local that one's name, and a value
        its class's, the local a phi shares with the values that feed it
        where no value of either is live where the other assigns one, on
        the leaf's own slot liveness.  The class of the value the leaf
        returns takes the call's register, which the region's classes
        keep apart from what the call reads (see :meth:`_coalesce`), so
        its ``ret`` moves nothing."""
        call = self.calls[n]
        cfi = self._func_index[call.callee.name]
        slots = self._slot_of[cfi]
        hoisted = self.leaf_hoists.get(n, {})
        aliases = self.leaf_aliases.get(n, {})
        blocks = call.callee.blocks
        name = lambda slot: f"q{cfi}_{slot}"

        def held(reg: str) -> str:
            while reg in aliases:
                reg = aliases[reg]
            return reg

        def local(value) -> Optional[int]:
            """The slot whose local holds ``value`` at this site, if any."""
            if not isinstance(value, Instruction) or id(value) not in slots:
                return None
            reg = held(name(slots[id(value)]))
            return None if reg in hoisted else int(reg[reg.index("_") + 1 :])

        def locals_of(values) -> Set[int]:
            return {s for s in map(local, values) if s is not None}

        events: Dict[int, List[Tuple[Optional[int], Set[int], Set[int]]]] = {}
        edges: Dict[int, List[Tuple[int, Set[int]]]] = {}
        phidefs: Dict[int, Set[int]] = {}
        for block in blocks:
            evs = []
            for inst in block.instructions:
                if isinstance(inst, PhiNode):
                    continue
                own = slots.get(id(inst))
                d = own if own is not None and local(inst) == own else None
                extra = locals_of([inst.pointer]) if isinstance(inst, LoadInst) else set()
                evs.append((d, locals_of(inst.operands), extra))
            events[id(block)] = evs
            edges[id(block)] = [
                (id(s), locals_of(p.incoming_for_block(block) for p in s.phis()))
                for s in block.successors()
            ]
            phidefs[id(block)] = locals_of(block.phis())
        top: Dict[int, Set[int]] = {id(b): set() for b in blocks}

        def walk(block: BasicBlock, conflicts=None) -> Set[int]:
            live: Set[int] = set()
            for k, moved in edges[id(block)]:
                live |= (top[k] - phidefs[k]) | moved
            for d, used, extra in reversed(events[id(block)]):
                if d is not None:
                    if conflicts is not None:
                        conflicts.setdefault(d, set()).update(live, extra)
                    live.discard(d)
                live |= used
            return live

        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                new = walk(block)
                if new != top[id(block)]:
                    top[id(block)] = new
                    changed = True
        conflicts: Dict[int, Set[int]] = {}
        for block in blocks:
            walk(block, conflicts)
            for p in phidefs[id(block)]:
                conflicts.setdefault(p, set()).update(top[id(block)])
        pairs = [
            (local(p), local(p.incoming_for_block(block)))
            for block in blocks for s in block.successors() for p in s.phis()
            if local(p) is not None and local(p.incoming_for_block(block)) is not None
        ]
        rep: Dict[int, str] = {}
        for group in coalesce(pairs, conflicts):
            for v in group:
                rep[v] = name(min(group))
        value = returned(call)
        if value is not None and local(value) is not None and id(call) in self.slots:
            ret = local(value)
            for v, r in list(rep.items()):
                if r == rep.get(ret, name(ret)):
                    rep[v] = f"r{self.slots[id(call)]}"
            rep[ret] = f"r{self.slots[id(call)]}"
        names = {}
        for slot in set(slots.values()):
            reg = held(name(slot))
            got = hoisted[reg] if reg in hoisted else rep.get(
                int(reg[reg.index("_") + 1 :]), reg
            )
            if got != name(slot):
                names[name(slot)] = got
        return names
