"""Dominance edge cases for `repro.ir.verifier`: phi nodes in natural-loop
headers (back-edge incoming values), definitions in unreachable blocks,
self-referential phis, and the matching negative cases the verifier must
reject."""

import pytest

from repro.ir import (
    I64,
    IRBuilder,
    Module,
    const_int,
    verify_module,
)
from repro.ir.verifier import VerificationError, verify_function


def make_counting_loop():
    """entry -> header <-> latch, header -> exit; phi i in the header."""
    m = Module("loop")
    fn = m.add_function("main", I64, [I64], ["n"])
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    latch = fn.add_block("latch")
    exit_ = fn.add_block("exit")

    IRBuilder(entry).br(header)

    hb = IRBuilder(header)
    phi = hb.phi(I64, name="i")
    cond = hb.icmp("slt", phi, fn.args[0], name="cond")
    hb.cond_br(cond, latch, exit_)

    lb = IRBuilder(latch)
    next_i = lb.add(phi, const_int(1), name="i.next")
    lb.br(header)

    IRBuilder(exit_).ret(phi)

    phi.add_incoming(const_int(0), entry)
    phi.add_incoming(next_i, latch)
    return m, fn, phi, next_i, header, latch, entry, exit_


class TestLoopHeaderPhis:
    def test_back_edge_incoming_is_valid(self):
        # The canonical natural loop: i.next is defined in the latch and
        # flows into the header phi along the back edge.  The def does not
        # dominate the header, but it dominates the *edge* — valid SSA.
        m, *_ = make_counting_loop()
        verify_module(m)

    def test_self_referential_phi_is_valid(self):
        # i = phi [0, entry], [i, latch]: the phi is its own incoming
        # value along the back edge.  The header dominates the latch, so
        # the def-dominates-edge rule holds.
        m = Module("selfphi")
        fn = m.add_function("main", I64, [I64], ["n"])
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        latch = fn.add_block("latch")
        exit_ = fn.add_block("exit")
        IRBuilder(entry).br(header)
        hb = IRBuilder(header)
        phi = hb.phi(I64, name="i")
        cond = hb.icmp("slt", phi, fn.args[0], name="cond")
        hb.cond_br(cond, latch, exit_)
        IRBuilder(latch).br(header)
        IRBuilder(exit_).ret(phi)
        phi.add_incoming(const_int(0), entry)
        phi.add_incoming(phi, latch)
        verify_module(m)

    def test_incoming_that_does_not_dominate_edge_rejected(self):
        # Swap the phi wiring: the latch-defined value claims to arrive
        # from entry, which its def cannot dominate.
        m, fn, phi, next_i, header, latch, entry, exit_ = make_counting_loop()
        phi.incoming_blocks[0], phi.incoming_blocks[1] = (
            phi.incoming_blocks[1],
            phi.incoming_blocks[0],
        )
        with pytest.raises(VerificationError, match="does not dominate edge"):
            verify_module(m)

    def test_loop_body_def_used_after_loop_rejected(self):
        # A value defined in the latch does not dominate the exit block
        # (the header can exit without ever running the latch).
        m, fn, phi, next_i, header, latch, entry, exit_ = make_counting_loop()
        ret = exit_.terminator
        ret.set_operand(0, next_i)
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_module(m)


class TestUnreachableDefs:
    def make_unreachable(self):
        m = Module("unreach")
        fn = m.add_function("main", I64, [I64], ["x"])
        entry = fn.add_block("entry")
        dead = fn.add_block("dead")  # no predecessors
        eb = IRBuilder(entry)
        v = eb.add(fn.args[0], const_int(1), name="v")
        eb.ret(v)
        db = IRBuilder(dead)
        ghost = db.add(fn.args[0], const_int(7), name="ghost")
        db.ret(ghost)
        return m, fn, entry, dead, ghost

    def test_def_inside_unreachable_block_is_tolerated(self):
        # Dominance is undefined off the reachable subgraph; the verifier
        # must not crash on (or reject) dead self-contained code.
        m, *_ = self.make_unreachable()
        verify_module(m)

    def test_reachable_use_of_unreachable_def_is_tolerated(self):
        # LLVM semantics: any use dominated by an unreachable def is
        # itself never executed meaningfully; the verifier skips defs in
        # unreachable blocks rather than reporting a spurious error.
        m, fn, entry, dead, ghost = self.make_unreachable()
        entry.terminator.set_operand(0, ghost)
        verify_module(m)

    def test_use_before_def_in_same_block_rejected(self):
        m = Module("order")
        fn = m.add_function("main", I64, [I64], ["x"])
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        first = b.add(fn.args[0], const_int(1), name="first")
        second = b.add(first, const_int(2), name="second")
        b.ret(second)
        # Move `second` before `first` by hand.
        entry.instructions.remove(second)
        entry.instructions.insert(0, second)
        with pytest.raises(VerificationError, match="used before defined"):
            verify_module(m)

    def test_branch_only_def_used_at_merge_rejected(self):
        # entry splits; a value defined in one arm cannot be used at the
        # join without a phi.
        m = Module("merge")
        fn = m.add_function("main", I64, [I64], ["x"])
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        eb = IRBuilder(entry)
        cond = eb.icmp("slt", fn.args[0], const_int(10), name="cond")
        eb.cond_br(cond, left, right)
        lb = IRBuilder(left)
        only_left = lb.add(fn.args[0], const_int(1), name="only.left")
        lb.br(join)
        IRBuilder(right).br(join)
        IRBuilder(join).ret(only_left)
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_module(m)


class TestMessages:
    """Messages are built only when a check fails; their text is fixed."""

    def errors(self, fn):
        errors = []
        verify_function(fn, errors)
        return errors

    def test_phi_count_message(self):
        m, fn, phi, next_i, header, latch, entry, exit_ = make_counting_loop()
        phi.incoming_blocks.append(entry)
        assert "main/header: phi has 2 values for 3 incoming blocks" in self.errors(fn)

    def test_use_list_message(self):
        m, fn, phi, next_i, header, latch, entry, exit_ = make_counting_loop()
        cond = header.instructions[1]
        phi.uses.remove((cond, 0))
        assert self.errors(fn) == [
            f"main/header: use-list of {phi!r} is missing ({cond!r}, 0)"
        ]

    def test_a_valid_function_formats_no_message(self, monkeypatch):
        m, fn, *_ = make_counting_loop()
        formatted = []
        monkeypatch.setattr(
            type(fn.blocks[1].instructions[0]), "__repr__",
            lambda self: formatted.append(self) or "phi",
        )
        assert self.errors(fn) == []
        assert formatted == []
