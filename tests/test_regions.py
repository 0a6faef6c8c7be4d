"""Loop-region dispatch: region functions against the per-block table.

The lean dispatch loop runs each small loop nest as one region function
(``CompiledFunction.region_fns``) with its SSA values in Python locals.
The per-block table (``block_fns``) is the reference: every observable of
a run — status, cycles, profile, memory, output log, detection messages
and campaign records — must be identical whichever table executes it.
No production option selects the per-block table for the lean loop, so
these tests swap it in themselves.

Region code also inlines calls to leaf functions behind a guard that falls
back to ``Interpreter.call``; ``TestInlinedLeaves`` checks that the inline
path fires, that the fallback is taken when it must be, and that both agree
with the per-block table.

Besides the six workloads, the suites run ``JoinShapes``, a kernel of the
branch shapes whose joins region code falls into rather than dispatches on.
"""

import hashlib
import itertools
import random
import re
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.analysis.loops import LoopInfo
from repro.faults import Campaign, CampaignSpec, MpiCampaign, TrialPlan
from repro.faults.campaign import TrialRecord, call_cycle
from repro.faults.model import FaultSite, result_bits
from repro.faults.parallel import run_campaign, trial_entry
from repro.faults.models import FAULT_MODELS, InjectionSpec, Transient1Bit
from repro.interp import Interpreter
from repro.interp import compiler
from repro.interp.costmodel import CostModel
from repro.interp.errors import MemoryFault
from repro.ir.instructions import (
    DEFAULT_OPCODE_COSTS, FP_ARITH_OPS, INT_ARITH_OPS, INT_LOGIC_OPS,
    AllocaInst, AtomicRMWInst, BinaryOperator, BranchInst, CallInst, CastInst,
    FCmpInst, GEPInst, ICmpInst, LoadInst, PhiNode, RetInst, SelectInst,
    StoreInst, UnreachableInst,
)
from repro.ir import (
    F64, I1, I64, Module, const_bool, const_float, const_int, parse_module,
    print_module,
)
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import SnapshotLadder, WarmSnapshot, WarmStart
from repro.recover.warm import _TrackState
from repro.workloads import get_workload
from repro.workloads.base import Workload

WORKLOADS = ("comd", "hpccg", "amg", "fft", "is", "particles")


class JoinShapes(Workload):
    """Branch shapes in one loop: if-then, if-then-else, nested diamonds,
    ``&&``/``||`` in the loop and ``if`` conditions, a join whose phi
    takes a different value on each edge, a ``break`` and an early
    ``return`` from inside an arm, and, per input, a trap (input 2) or a
    long-running loop (input 3) inside an arm.  ``main`` fills ``data``
    first, in a loop of its own, so its second region starts with slots
    the first one left stale."""

    name = "joins"
    source = """
    output double result[2];
    double data[16];
    int n = 24;
    int trap_at = -1;
    int spin_at = -1;

    int shapes(int k) {
        int acc = 0;
        int j = 0;
        while (j < n && acc < 100000) {
            int t = 0;
            if (j % 3 == 0 || k % 5 == 1) {
                t = j * 2;
            } else if (j % 3 == 1) {
                if (k > j) { t = k - j; } else { t = j - k; }
            } else {
                t = 7;
            }
            if (t > 40) { t = t - 40; }
            if (j == trap_at) { acc = acc + (int)data[j - 1000000]; }
            if (j == spin_at) {
                int w = 0;
                while (w < 5000) { w = w + 1; }
                acc = acc + w;
            }
            if (j % 4 == 2) {
                if (acc > 300 && k % 4 == 3) { break; }
                acc = acc + 1;
            }
            if (j % 5 == 4) {
                if (j * k == 44) { return acc + 1; }
                acc = acc - 1;
            }
            acc = acc + t;
            j = j + 1;
        }
        return acc;
    }

    void main() {
        for (int i = 0; i < 16; i = i + 1) { data[i] = (double)(i * 3); }
        int total = 0;
        for (int k = 0; k < 12; k = k + 1) {
            int s = shapes(k);
            if (s % 2 == 0) { total = total + s; } else { total = total - s; }
            print(s);
        }
        result[0] = (double)total;
    }
    """
    inputs = {1: {}, 2: {"trap_at": 5}, 3: {"spin_at": 0}}


def subject(name):
    """A registered workload by name, or ``JoinShapes`` for ``"joins"``."""
    return JoinShapes() if name == JoinShapes.name else get_workload(name)


def fully_duplicated(name):
    """Input 1 of the registered workload ``name``, every eligible
    instruction duplicated and checked."""
    w = get_workload(name)
    module = w.compile()
    duplicate_instructions(module, FullDuplicationSelector().select(module))
    return w.make_interpreter(1, module=module)


def flip(inst, occurrence, bit):
    """The transient-1bit injection: flip ``bit`` of ``inst``'s result at
    its ``occurrence``-th execution."""
    return Transient1Bit().injection_for(FaultSite(inst, occurrence, bit))


@contextmanager
def per_block_dispatch(cm):
    """Make the lean and the profiled loop dispatch block by block,
    injected and resync-armed trials too."""
    saved = [(cf.region_fns, cf.region_of, cf.profiled_fns) for cf in cm.cfuncs]
    for cf in cm.cfuncs:
        cf.region_fns = list(cf.block_fns)
        cf.region_of = {}
        cf.profiled_fns = list(cf.block_fns)
    try:
        yield
    finally:
        for cf, tables in zip(cm.cfuncs, saved):
            cf.region_fns, cf.region_of, cf.profiled_fns = tables


def digest(values):
    """NaN-safe fingerprint of a long list (compared as text)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()


def observe(interp, result):
    """Everything a run leaves behind."""
    return {
        "status": result.status,
        "error": result.error,
        "cycles": result.cycles,
        "value": repr(result.value),
        "injection_hit": result.injection_hit,
        "profile": digest(result.profile),
        "cells": digest(interp.cells),
        "output_log": digest(interp.output_log),
    }


def both_ways(interp, **run_kwargs):
    """(region dispatch, per-block dispatch) observations of one run.

    A profiled run dispatches through the profiled region code, so the
    run is made again without the profile, on the lean code, which must
    leave everything else the same.  The default budget turns a region
    that loops forever into a hang."""
    run_kwargs.setdefault("cycle_budget", 20_000_000)
    fast = observe(interp, interp.run(**run_kwargs))
    if run_kwargs.get("profile"):
        lean = observe(interp, interp.run(**dict(run_kwargs, profile=False)))
        assert lean == dict(fast, profile=digest(None))
    with per_block_dispatch(interp.cm):
        reference = observe(interp, interp.run(**run_kwargs))
    return fast, reference


def static_check_count(module):
    return sum(
        1
        for fn in module.defined_functions()
        for block in fn.blocks
        for inst in block.instructions
        if getattr(getattr(inst, "callee", None), "name", "").startswith("ipas.check")
    )


def campaign_entries(campaign, n_trials, seed):
    result = run_campaign(campaign, n_trials, seed=seed, n_jobs=1)
    plan = TrialPlan(campaign, n_trials, seed)
    return [plan.entry(i, record) for i, record in enumerate(result.records)]


def compiled_sources(monkeypatch):
    """filename -> source of everything compiled from here on."""
    sources = {}
    real = compiler._exec

    def record(source, filename, name):
        sources[filename] = source
        return real(source, filename, name)

    monkeypatch.setattr(compiler, "_exec", record)
    return sources


def dispatch_tests(source):
    """The block indices a region source's dispatch loop tests ``bi``
    against (a numbered prologue tests it too, once per inner entry)."""
    return re.findall(r"\bbi == (\d+):", source[source.index("while True:"):])


def exit_stores(source):
    """exit target -> the frame slots a region source's exit to it writes
    back with its count (its phis' writes, on the lines before, aside)."""
    exits = re.findall(
        r"state\.cycles = _c; ((?:f\[\d+\] = [^;]+; )*)return (\d+)$", source, re.M
    )
    return {int(k): set(map(int, re.findall(r"f\[(\d+)\]", w))) for w, k in exits}


#: the tail of an int64 wrap check in generated code
WRAP = "% 18446744073709551616"


def loop_iteration(source, header):
    """A region source from its dispatch loop's test of the loop header
    ``header`` to that loop's back edge: one iteration of an innermost
    loop."""
    start = source.index(f"if bi == {header}:", source.index("while True:"))
    return source[start : source.index(f"bi = {header}; continue", start)]


def every_arm(source):
    """``source`` without its ``else:`` arms: the code a pass that takes
    every ``if`` runs (an inlined call's inline arm, not its real call)."""
    kept, skip = [], None
    for line in source.splitlines():
        indent = len(line) - len(line.lstrip())
        if skip is not None and (not line.strip() or indent > skip):
            continue
        skip = None
        if line.strip() == "else:":
            skip = indent
            continue
        kept.append(line)
    return "\n".join(kept)


#: a charge in generated code
CHARGE = re.compile(r"^ *_c \+= \d+$", re.M)

#: a counted loop's fast copy in generated code: its guard, its ``for``
#: and the body, and the assignment of ``i`` after it
FAST_COPY = re.compile(
    r"^( *)if [^\n]* <= _bud[^\n]*:\n\1    for (\w+) in range\(\2, ([^\n]*)\):\n"
    r"(?:\1        [^\n]*\n)+\1    \2 = \3\n",
    re.M,
)


def checked(source):
    """``source`` without its counted loops' fast copies: the checked
    loops, which run what the fast copies run and test the budget too."""
    return FAST_COPY.sub("", source)


def fast_copies(source):
    """The ``for`` loops of ``source``'s fast copies, each from its guard
    to the assignment of ``i`` after it."""
    return [m.group(0) for m in FAST_COPY.finditer(source)]


def leaf_loops(source):
    """One iteration of each inlined leaf loop in a region source: from
    the loop's ``while True:`` to its first ``continue``, its back edge."""
    loops = []
    at = source.index("while True:") + 1  # past the region's own loop
    while True:
        at = source.find("while True:", at)
        if at < 0:
            return loops
        loops.append(source[at : source.index("continue", at)])
        at += 1


class TestRegionPlan:
    #: joins the placement rule leaves to dispatch: each follows an inner
    #: loop (``if (parallel) { for ... }`` and ``if (j < row0 || j >= row1)
    #: { for ... }``), whose exit edge leaves that loop header's dispatch arm
    UNPLACED_JOINS = {("amg", "smooth"): {"if.end30", "if.end38"}}

    def test_regions_are_outermost_loops_dispatching_on_their_headers(
        self, monkeypatch
    ):
        """Plain and fully duplicated, each function's regions are exactly
        its outermost natural loops, and each lean region tests ``bi``
        against exactly the loop headers inside it, once each, but the
        last in dispatch order, which the ``while`` body falls into.
        ``region_fns`` enters the region at each of those headers and
        holds block functions everywhere else."""
        sources = compiled_sources(monkeypatch)
        for name in WORKLOADS:
            for protect in ("none", "full"):
                module = get_workload(name).compile()
                if protect == "full":
                    duplicate_instructions(
                        module, FullDuplicationSelector().select(module)
                    )
                sources.clear()
                cm = Interpreter(module).cm
                assert any(cf.region_of for cf in cm.cfuncs), name
                for cf in cm.cfuncs:
                    blocks = cf.fn.blocks
                    index = {id(b): i for i, b in enumerate(blocks)}
                    loops = LoopInfo(cf.fn).loops
                    outermost = {
                        index[id(lp.header)]: {index[id(b)] for b in lp.blocks}
                        for lp in loops
                        if not any(lp.blocks < other.blocks for other in loops)
                    }
                    assert dict(regions_of(cf)) == outermost, (name, cf.name)
                    unplaced = self.UNPLACED_JOINS.get((name, cf.name), set())
                    entered = set()
                    for header, members in outermost.items():
                        fn = cf.region_fns[header]
                        assert fn is not cf.block_fns[header]
                        heads = {
                            index[id(lp.header)] for lp in loops
                            if index[id(lp.header)] in members
                        } | {i for i in members if blocks[i].name in unplaced}
                        source = sources[f"<region {cf.name}.{blocks[header].name}>"]
                        tested = [int(k) for k in dispatch_tests(source)]
                        assert len(tested) == len(set(tested)) == len(heads) - 1
                        assert set(tested) < heads, (name, cf.name)
                        for bi in heads - {header}:
                            entry = cf.region_fns[bi]
                            assert (entry.func, entry.args) == (fn, ())
                            assert entry.keywords == {"bi": bi}
                        entered |= heads
                    for bi, fn in enumerate(cf.region_fns):
                        if bi not in entered:
                            assert fn is cf.block_fns[bi]

    def test_an_unstructured_join_stays_a_dispatch_target(self):
        """``y`` joins arms of two different ``if``s, and ``join`` is
        entered from ``y`` as well as from those arms: neither sits after
        one ``if``/``else``, so the region dispatches on both, emits every
        block once, and runs as the per-block table does."""
        text = """
        @result = global [2 x f64] output

        define void @main() {
        entry:
          br label %head
        head:
          %i = phi i64 [ 0, %entry ], [ %next, %join ]
          %acc = phi i64 [ 0, %entry ], [ %sum, %join ]
          %c = icmp slt i64 %i, 12
          br i1 %c, label %x, label %done
        x:
          %r = srem i64 %i, 3
          %a = icmp eq i64 %r, 0
          br i1 %a, label %left, label %right
        left:
          %b = icmp slt i64 %i, 6
          br i1 %b, label %y, label %join
        right:
          %d = icmp eq i64 %r, 1
          br i1 %d, label %y, label %join
        y:
          %u = add i64 %acc, 100
          br label %join
        join:
          %v = phi i64 [ %u, %y ], [ 1, %left ], [ 2, %right ]
          %sum = add i64 %acc, %v
          %next = add i64 %i, 1
          br label %head
        done:
          %f = sitofp i64 %acc to f64
          %p = gep f64* @result, i64 0
          store f64 %f, f64* %p
          ret void
        }
        """
        interp = Interpreter(parse_module(text))
        (cf,) = interp.cm.cfuncs
        ((header, _),) = regions_of(cf)
        compiled = interp.cm._compiler
        targets, joins = compiled._dispatch_targets(
            cf, compiled._regions[(cf.index, header)].order, header
        )
        names = sorted(cf.fn.blocks[bi].name for bi in targets)
        assert names == ["head", "join", "y"]
        assert joins == {}
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    def test_spmv_slab_runs_in_regions(self, monkeypatch):
        """hpccg input 1: the golden run calls the block functions of
        ``spmv_slab`` only for the blocks outside its loops (entry, between
        the loops, return), once per call; its loop nest is one region
        that tests ``bi`` once for each inner loop header.  A tripping
        trial whose flip lies in the nest steps block functions of the
        nest only in stretches that start at a test point, where a region
        budget test failed, and end at the next loop header, where the
        dispatch loop enters the region again (or at the nest's exit);
        the trip lies in one of them.  Its other block-function calls are
        the three outside blocks, at most once per call."""
        sources = compiled_sources(monkeypatch)
        w = get_workload("hpccg")
        interp = w.make_interpreter(1)
        cm = interp.cm
        cf = cm.cfuncs[cm.get_function_index("spmv_slab")]
        (nest,) = [h for h, members in regions_of(cf) if len(members) > 2]
        region = cm._compiler._regions[(cf.index, nest)]
        index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        heads = {
            index[id(lp.header)] for lp in LoopInfo(cf.fn).loops
            if cf.region_of.get(index[id(lp.header)]) == nest
        }
        assert len(heads) == 3  # the iz, iy and ix loops
        source = sources[f"<region spmv_slab.{cf.fn.blocks[nest].name}>"]
        assert sorted(map(int, dispatch_tests(source))) == sorted(heads - {nest})
        campaign = Campaign(
            interp, verifier=w.verifier(), entry=w.entry,
            budget_factor=w.budget_factor,
        )
        campaign.prepare()

        log = []
        wrapped = {
            id(fn): lambda f, s, _fn=fn, _bi=bi: log.append(_bi) or _fn(f, s)
            for bi, fn in enumerate(cf.block_fns)
        }
        entries = {
            bi: lambda f, s, _fn=cf.region_fns[bi], _bi=bi: (
                log.append(("enter", _bi)) or _fn(f, s)
            )
            for bi in heads
        }
        monkeypatch.setattr(cf, "block_fns", [wrapped[id(fn)] for fn in cf.block_fns])
        monkeypatch.setattr(cf, "region_fns", [
            entries.get(bi) or wrapped.get(id(fn), fn)
            for bi, fn in enumerate(cf.region_fns)
        ])
        with call_counts() as spmv:
            assert interp.run(w.entry).status == "ok"
        outside = set(range(len(cf.fn.blocks))) - set(cf.region_of)
        calls = Counter(bi for bi in log if type(bi) is int)
        assert calls == Counter(dict.fromkeys(outside, spmv["spmv_slab"]))

        on_trip(monkeypatch, lambda interp, frame: log.append("trip"))
        members = members_of(cf, nest)
        stepping = members | {"trip"}
        ends = {("enter", h) for h in heads} | outside
        trials = 0
        for inst, count in campaign._sites:
            record = cm.record_for(inst)
            if record.cfi != cf.index or record.block_index not in members:
                continue
            log.clear()
            with call_counts() as spmv:
                campaign.run_site(FaultSite(inst, (count + 1) // 2, 0))
            assert log.count("trip") == 1, inst
            rest, k = [], 0
            while k < len(log):
                if log[k] not in stepping:
                    rest.append(log[k])
                    k += 1
                    continue
                stretch = list(itertools.takewhile(stepping.__contains__, log[k:]))
                k += len(stretch)
                assert stretch[0] in region.bounds or stretch[0] == "trip", stretch
                assert not heads & set(stretch[1:]), (inst, stretch)
                assert k == len(log) or log[k] in ends, (inst, stretch, log[k])
            assert set(rest) <= outside | {("enter", h) for h in heads}, inst
            calls = Counter(bi for bi in rest if bi in outside)
            assert max(calls.values()) <= spmv["spmv_slab"], inst
            trials += 1
        assert trials >= 10

    def test_a_counting_table_counts_from_every_region_entry(self):
        """hpccg's ``spmv_slab`` nest, started at each of its inner loop
        headers: the injected function's counting table counts a site of
        the innermost loop, and ends the call, as the injectable block
        functions do."""
        w = get_workload("hpccg")
        interp = w.make_interpreter(1)
        cm = interp.cm
        cf = cm.cfuncs[cm.get_function_index("spmv_slab")]
        (nest,) = [h for h, members in regions_of(cf) if len(members) > 2]
        region = cm._compiler._regions[(cf.index, nest)]
        inner = [bi for bi in region.entries if bi != nest]
        assert len(inner) == 2  # the iy and ix loops
        inst = first_value_in(cm, cf, region.order[0])
        record = cm.record_for(inst)
        for entry in inner:
            start = region_entry(interp, w.entry, cf, entry)
            ends = []
            for table in (interp._injected_region_fns, interp._injected_block_fns):
                frame = restore(interp, start)
                # inj_occ stays 0: the site counts and never fires
                interp.inj_cfi, interp.inj_inst = record.cfi, inst
                interp.inj_slot, interp.inj_bi = record.slot, record.block_index
                fns = table()
                bi = entry
                while bi >= 0:
                    bi = fns[bi](frame, interp)
                ends.append((interp.inj_seen, interp.ret, interp.cycles,
                             digest(interp.cells)))
            assert ends[0] == ends[1], cf.fn.blocks[entry].name
            assert ends[0][0] > 0

    @pytest.mark.parametrize("knobs", [
        {"fault_model": "intermittent:p=1,window=8"},
        {"protect": "full", "recover": True},
    ])
    def test_counting_trials_at_every_top_of_an_iteration(self, knobs):
        """A counting trial (a multi-shot model, or recovery) whose site is
        in a member of hpccg's ``spmv_slab`` nest that is no region entry,
        right after the test point with the largest bound, executing in
        the costliest iteration of the innermost loop: at a hang budget
        equal to each block top of that iteration its record and end state
        equal the per-block table's.  A deopt exit at that test point
        steps the site's block on the injected table, where it counts."""
        campaign = CampaignSpec(workload="hpccg", trials=1, **knobs).build()
        campaign.prepare()
        interp = campaign.interp
        cm = interp.cm
        cf, region, iteration = inner_iteration(interp, campaign.entry, "spmv_slab")
        point = max(region.bounds, key=region.bounds.get)
        index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        ran = {bi: c for cfi, bi, c in iteration if cfi == cf.index}
        block = min(
            index[id(s)] for s in cf.fn.blocks[point].successors()
            if index[id(s)] in ran and index[id(s)] not in region.bounds
        )
        top = ran[block]
        inst = first_value_in(cm, cf, block)
        entries = interp.run(
            campaign.entry, profile=True, recovery=campaign.recovery
        ).entries
        post = top + cf.costs[block]
        occurrence = list(entries[cm.record_for(inst).block_gid]).index(post) + 1
        model = campaign.fault_model
        site = model.sample_site(
            _FixedSite(FaultSite(inst, occurrence, 3)), random.Random(5)
        )
        assert campaign._fire_cycle(site) is None

        def counted(budget):
            result = interp.run(
                campaign.entry, injection=model.injection_for(site),
                cycle_budget=budget, recovery=campaign.recovery,
            )
            record = TrialRecord(
                site, campaign.classify(result), result.status, result.cycles
            )
            return trial_entry(0, site, 0, record), observe(interp, result)

        hits = 0
        for _, _, budget in iteration:
            fast = counted(budget)
            with per_block_dispatch(cm):
                assert counted(budget) == fast, budget
            hits += fast[1]["injection_hit"]
        assert hits

    def test_an_inner_entry_binds_every_slot_stored_at_an_exit(self, monkeypatch):
        """``%s`` is computed at the top of the outer loop, before the
        inner one, and read only after the nest: every path from the
        header to the exit assigns it, no path from the inner header does.
        It is live at the inner header, so the injectable form's prologue
        loads it, and a tripping trial that re-enters the region at the
        inner header and leaves through the exit stores it, and ends as
        the per-block table does."""
        text = """
        @result = global [2 x f64] output

        define void @main() {
        entry:
          br label %outer
        outer:
          %i = phi i64 [ 0, %entry ], [ %inext, %latch ]
          %acc = phi i64 [ 0, %entry ], [ %a2, %latch ]
          %s = mul i64 %i, 3
          br label %inner
        inner:
          %j = phi i64 [ 0, %outer ], [ %jnext, %inner ]
          %a = phi i64 [ %acc, %outer ], [ %a2, %inner ]
          %t = add i64 %a, %j
          %a2 = add i64 %t, 1
          %jnext = add i64 %j, 1
          %cj = icmp slt i64 %jnext, 5
          br i1 %cj, label %inner, label %latch
        latch:
          %inext = add i64 %i, 1
          %ci = icmp slt i64 %inext, 8
          br i1 %ci, label %outer, label %done
        done:
          %r = add i64 %a2, %s
          %f = sitofp i64 %r to f64
          %p = gep f64* @result, i64 0
          store f64 %f, f64* %p
          ret void
        }
        """
        sources = compiled_sources(monkeypatch)
        interp = Interpreter(parse_module(text))
        cm = interp.cm
        (cf,) = cm.cfuncs
        ((header, _),) = regions_of(cf)
        region = cm._compiler._regions[(cf.index, header)]
        names = {b.name: bi for bi, b in enumerate(cf.fn.blocks)}
        assert region.entries == [names["inner"], names["outer"]]
        s = first_value_in(cm, cf, names["outer"])
        slot = cm.record_for(s).slot
        cm.injected_region_entries(s)
        source = sources["<region main.outer>"]
        assert f"    r{slot} = f[{slot}]\n" in source[: source.index("    try:")]
        stores = exit_stores(source)
        assert stores and all(slot in written for written in stores.values())
        entered = []
        fns = list(cf.region_fns)
        fns[names["inner"]] = lambda f, st, _fn=fns[names["inner"]]: (
            entered.append(1) or _fn(f, st)
        )
        cf.region_fns = fns
        campaign = Campaign(interp, budget_factor=3.0)
        campaign.prepare()
        trials = 0
        for inst, count in campaign._sites:
            if cm.record_for(inst).block_index != names["inner"]:
                continue
            for occurrence in sorted({1, (count + 1) // 2, count - 1}):
                site = FaultSite(inst, occurrence, 0)
                assert campaign._fire_cycle(site) is not None
                record = campaign.run_site(site)
                with per_block_dispatch(cm):
                    expected = campaign.run_site(site)
                assert trial_entry(0, site, 0, record) == trial_entry(
                    0, site, 0, expected
                ), (inst, occurrence)
                trials += 1
        assert trials >= 9 and entered

    def test_exits_write_back_only_values_read_outside(self, monkeypatch):
        source = """
        output double result[2];
        int n = 5;
        void main() {
            double s = 0.0;
            double t = 0.0;
            for (int i = 0; i < n; i = i + 1) {
                t = (double)(i * i);
                s = s + t;
            }
            result[0] = s;
        }
        """
        sources = compiled_sources(monkeypatch)
        cm = Interpreter(compile_source(source)).cm
        (cf,) = cm.cfuncs
        ((header, members),) = regions_of(cf)
        cm.injected_region_entries(first_value_in(cm, cf, min(members)))
        stores = exit_stores(sources[f"<region main.{cf.fn.blocks[header].name}>"])
        # Only the sum leaves the loop: the counter and the square stay in
        # locals, and the header phis are rewritten by every entry edge.
        assert list(map(len, stores.values())) == [1]


def workload_modules():
    """(name, protect, module) for the six workloads, plain and fully
    duplicated."""
    for name in WORKLOADS:
        for protect in ("none", "full"):
            module = get_workload(name).compile()
            if protect == "full":
                duplicate_instructions(module, FullDuplicationSelector().select(module))
            yield name, protect, module


def all_sources(monkeypatch):
    """[(filename, source)] of everything compiled from here on (variants
    share filenames, so a list, not a dict)."""
    sources = []
    real = compiler._exec

    def record(source, filename, name):
        sources.append((filename, source))
        return real(source, filename, name)

    monkeypatch.setattr(compiler, "_exec", record)
    return sources


class TestRegionSources:
    #: sha256 of the sorted (filename, source) pairs of every block, resume
    #: and injected-block variant (both epilogues) below: these forms are
    #: unchanged since region code last changed how it tests the budget
    BLOCK_SOURCES = (
        5309, "145a5a64bedd81e581155f6f5284bac3bb8ed979d38c47950879cb3a29e19faa"
    )
    BUMP = re.compile(
        r"^ *(_p = state\.prof|_p\[\d+\]\.append\(_c( \+ \d+)?\)"
        r"|_unbump\(_p, _c, \([\d, ]+\)\))\n",
        re.M,
    )

    def test_lean_code_reads_no_profile(self, monkeypatch):
        """Plain and fully duplicated, every lean region source is its
        profiled twin's source with the profile lines taken out, and no
        lean or injectable region source reads the profile."""
        sources = all_sources(monkeypatch)
        injectable = 0
        for name, protect, module in workload_modules():
            sources.clear()
            cm = Interpreter(module).cm
            lean = {f: src for f, src in sources if f.startswith("<region ")}
            sources.clear()
            cm.profiled_tables()
            profiled = {f.replace("profiled ", ""): src for f, src in sources}
            assert lean.keys() == profiled.keys(), (name, protect)
            for filename, source in lean.items():
                assert self.BUMP.sub("", profiled[filename]) == source, filename
                assert profiled[filename] != source
            sources.clear()
            for cf in cm.cfuncs:
                for header, members in regions_of(cf):
                    inst = first_value_in(cm, cf, min(members))
                    for mode in ("once", "multi"):
                        cm.injected_region_entries(inst, mode)
            injected = [src for f, src in sources if f.startswith("<region ")]
            for source in list(lean.values()) + injected:
                assert not re.search(r"\b_p\b|state\.prof", source), name
            injectable += len(injected)
        assert injectable

    #: sha256 of the sorted (filename, source) pairs of the injectable
    #: region variants (both epilogues) at the first value of every region
    #: member below: lean and profiled code number values, these forms
    #: do not; they load, exit and deopt by slot liveness, as those do
    INJECTED_REGION_SOURCES = (
        506, "77ffe487f95bd3a9656b05308a72d153a8f96777414942cb18f0797113f4a773"
    )

    def test_injectable_region_sources_are_pinned(self, monkeypatch):
        """Every injectable region variant of the six workloads, plain and
        fully duplicated, at every member block that holds a site: value
        numbering leaves them byte-identical."""
        sources = all_sources(monkeypatch)
        kept = []
        for _, _, module in workload_modules():
            cm = Interpreter(module).cm
            sources.clear()
            for cf in cm.cfuncs:
                for bi in sorted(cf.region_of):
                    insts = cf.fn.blocks[bi].instructions
                    if any(id(i) in cm.records and not isinstance(i, PhiNode) for i in insts):
                        for mode in ("once", "multi"):
                            cm.injected_region_entries(first_value_in(cm, cf, bi), mode)
            kept += [s for s in sources if s[0].startswith("<region ")]
        kept.sort()
        got = (len(kept), hashlib.sha256(repr(kept).encode()).hexdigest())
        assert got == self.INJECTED_REGION_SOURCES

    def test_real_calls_spill_for_a_resync(self, monkeypatch):
        """Every counted call in a lean region of the six workloads, plain
        and fully duplicated, an inlined leaf's real call included, first
        sets the tracking record of a run that tracks its frames and
        writes back the slots live after the call that region code
        assigns; a warm campaign compiles no other region form."""
        sources = all_sources(monkeypatch)
        spills = 0
        for name, protect, module in workload_modules():
            sources.clear()
            cm = Interpreter(module).cm
            for filename, source in sources:
                if not filename.startswith("<region "):
                    continue
                lines = source.splitlines()
                for i, line in enumerate(lines):
                    if "state.call(" in line:
                        before = lines[i - 1].strip()
                        if before.startswith("state.cycles = "):
                            before = lines[i - 2].strip()
                        assert re.fullmatch(
                            r"if _rec: (f\[\d+\] = [^;]+; )*_rec\[1\] = \d+; _rec\[2\] = \d+",
                            before,
                        ), (name, protect, filename, line)
                        spills += 1
                if "if _rec:" in source:
                    assert "    _rec = state.trk and state.trk.frames[-1]\n" in source
        assert spills > 10
        sources.clear()
        w = get_workload("fft")
        campaign = Campaign(
            w.make_interpreter(1), verifier=w.verifier(), entry=w.entry,
            budget_factor=w.budget_factor, warm_start=True,
        )
        assert campaign.run(40, seed=0).stats.golden_resyncs
        kinds = {f.split()[0] for f, _ in sources}
        assert kinds <= {"<block", "<region", "<profiled", "<resume"}, kinds

    def test_values_are_computed_once(self, monkeypatch):
        """What value numbering and hoisting save, by count: the fft
        butterfly's second loads of ``re[b]`` and ``im[b]`` and the
        re-checks of the four cells it stores to; the invariants of
        ``spmv_slab``'s inner iteration (``n * n``, ``n - 1`` and inlined
        ``idx3``'s ``iy * n`` and ``iz * n * n``), computed at the loops'
        entries, which leaves that iteration 8 of its 14 wrap checks; and
        every check of a fully duplicated ``waxpby``, whose shadow values
        its lean code computes from the same operands as their
        originals.  The counts are the checked loops'; each counted loop's
        fast copy runs the same code less its budget tests."""
        sources = compiled_sources(monkeypatch)
        get_workload("fft").make_interpreter(1)
        butterfly = checked(sources["<region fft_row.for.cond7>"])
        assert butterfly.count("state.load_past") == 4
        assert butterfly.count("_old = cells[") == 0
        assert butterfly.count("state.store_past") == 4
        get_workload("hpccg").make_interpreter(1)
        nest = checked(sources["<region spmv_slab.for.cond5>"])
        inner = loop_iteration(nest, int(dispatch_tests(nest)[0]))
        assert not re.search(r"\* r2\b", inner)
        assert not re.search(r"\br2 - 1\b", inner)
        assert inner.count(WRAP) <= 8
        fully_duplicated("hpccg")
        assert "check_failed" not in sources["<region waxpby.for.cond1>"]
        assert "check_failed" in sources["<block waxpby.for.body2>"]

    def test_charges_are_deferred(self, monkeypatch):
        """What charging per stretch saves, by count: the path through
        every arm of ``spmv_slab``'s inner iteration makes at most 8
        charges (15 when each block charged at its top); each inlined leaf
        loop of hpccg ``main`` (two ``dot_range``, three ``waxpby``) and of
        ``fft_row`` (``bit_reverse``) tests no ``q{cfi}_bi`` and makes one
        charge and one hang test per iteration; and no lean region tests a
        constant address against 0.  The counts are the checked loops'.
        Each of those loops also has one fast copy (hpccg ``main``'s five
        leaf loops, ``spmv_slab``'s inner loop), which makes the same
        charges but no hang test, no test point and no real call."""
        sources = all_sources(monkeypatch)
        for name in WORKLOADS:
            get_workload(name).make_interpreter(1)
        lean = {f: src for f, src in sources if f.startswith("<region ")}
        nest = lean["<region spmv_slab.for.cond5>"]
        inner = loop_iteration(checked(nest), int(dispatch_tests(nest)[0]))
        assert len(CHARGE.findall(every_arm(inner))) <= 8
        (fast,) = [
            copy for copy in fast_copies(nest) if "range(r24" in copy
        ]  # the inner ``ix`` loop
        assert len(CHARGE.findall(every_arm(fast))) == len(
            CHARGE.findall(every_arm(inner))
        )
        main = [src for f, src in lean.items() if f.startswith("<region main.")]
        row = [src for f, src in lean.items() if f.startswith("<region fft_row.")]
        cg = lean["<region main.while.cond13>"]
        copies = fast_copies(cg) + [fast]
        assert len(copies) == 6
        for copy in copies:
            assert "> state.budget" not in copy  # no hang test
            assert "> _bud:" not in copy  # no test point
            assert "state.call(" not in copy
            assert "_ca" not in copy.split("\n", 1)[1]  # no inline guard
        for sources_, count in ((main, 5), (row, 1)):
            loops = [loop for src in sources_ for loop in leaf_loops(checked(src))]
            assert len(loops) == count
            for src in sources_:
                assert not re.search(r"\bq\d+_bi\b", src)
            for loop in loops:
                assert len(CHARGE.findall(loop)) == 1
                assert loop.count("> state.budget") == 1
        for filename, src in lean.items():
            assert not re.search(r"if \d+ < 0:", src), filename

    def test_block_and_resume_sources_are_pinned(self, monkeypatch):
        """Every block function, resume variant and injectable block
        variant (each epilogue) of the six workloads, plain and fully
        duplicated: region code's budget tests change none of them."""
        sources = all_sources(monkeypatch)
        for _, _, module in workload_modules():
            cm = Interpreter(module).cm
            for cf in cm.cfuncs:
                for bi, block in enumerate(cf.fn.blocks):
                    calls = [
                        i for i in block.instructions
                        if isinstance(i, CallInst) and not i.callee.is_declaration
                    ]
                    for k in range(len(calls)):
                        cm.resume_block_fn(cf.index, bi, k)
                    for inst in block.instructions:
                        if id(inst) in cm.records:
                            for mode in ("once", "multi"):
                                cm.injected_block_fn(inst, mode)
        kept = sorted(s for s in sources if s[0].startswith(("<block", "<resume")))
        got = (len(kept), hashlib.sha256(repr(kept).encode()).hexdigest())
        assert got == self.BLOCK_SOURCES


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_golden_run(self, name):
        interp = get_workload(name).make_interpreter(1)
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    @pytest.mark.parametrize("name", ["fft", "hpccg"])
    def test_golden_run_fully_duplicated(self, name):
        """Lean code leaves out the checks whose two operands it numbers
        alike, which the per-block table still makes."""
        fast, reference = both_ways(fully_duplicated(name), profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    @pytest.mark.parametrize("bit", [0, 3, 40])
    def test_a_check_in_region_code_detects_a_value_from_outside(self, bit):
        """``k`` is flipped in the entry block, where the product its check
        guards masks it; ``k`` and its shadow then enter the loop's region
        through the frame, so they are two values there, and the loop
        body's check, in lean code, detects the fault."""
        source = """
        output double result[2];
        int n = 40;
        int m = 7;
        void main() {
            int k = m * 3;
            int dead = k * 0;
            double s = (double)dead;
            for (int i = 0; i < n; i = i + 1) { s = s + (double)(k + i); }
            result[0] = s;
        }
        """
        module = compile_source(source)
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        interp = Interpreter(module)
        k = next(i for i in module.functions["main"].blocks[0].instructions
                 if i.opcode == "mul")
        fast, reference = both_ways(interp, injection=flip(k, 1, bit))
        assert fast["status"] == "detected"
        assert fast == reference

    def test_values_are_numbered_afresh_at_each_loop_header(self):
        """The inner loop's header computes ``i * 2`` every inner
        iteration, and the outer body computes it again; the outer header,
        a dispatch target emitted after the inner one, sees a new ``i``
        and must compute its own product."""
        source = """
        output double result[2];
        int n = 6;
        void main() {
            double acc = 0.0;
            for (int i = 0; i < n; i = i + 1) {
                int t = i * 2;
                for (int j = 0; j < i * 2 + 1; j = j + 1) { acc = acc + (double)j; }
                acc = acc + (double)t;
            }
            result[0] = acc;
        }
        """
        fast, reference = both_ways(Interpreter(compile_source(source)), profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    def test_a_call_forgets_what_was_loaded(self):
        """``outer`` calls a defined function, so it is no leaf and the loop
        makes a real call between its two loads of ``a[k]``; the callee
        stores to that cell, so the second load must read it again."""
        source = """
        output double result[2];
        double a[4];
        void inner(int i) { a[i] = a[i] + 1.0; }
        void outer(int i) { inner(i); }
        void main() {
            double s = 0.0;
            for (int k = 0; k < 4; k = k + 1) {
                double x = a[k];
                outer(k);
                s = s + x * 10.0 + a[k];
            }
            result[0] = s;
        }
        """
        fast, reference = both_ways(Interpreter(compile_source(source)), profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    def test_hang_with_tiny_budget(self):
        interp = get_workload("hpccg").make_interpreter(1)
        for budget in (50, 5_000, 50_000):
            fast, reference = both_ways(interp, profile=True, cycle_budget=budget)
            assert fast["status"] == "hang"
            assert fast == reference

    def test_trap_inside_a_loop(self):
        source = """
        output double result[2];
        double data[4];
        int n = 64;
        void main() {
            double s = 0.0;
            for (int i = 0; i < n; i = i + 1) { s = s + data[i] + 1.0; }
            result[0] = s;
        }
        """
        interp = Interpreter(compile_source(source))
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "trap"
        assert fast == reference

    def test_recursive_and_nested_loop_kernel(self):
        source = """
        output double result[3];
        int n = 7;
        int fib(int k) {
            if (k < 2) { return k; }
            return fib(k - 1) + fib(k - 2);
        }
        double tri(int m) {
            double s = 0.0;
            for (int i = 0; i < m; i = i + 1) {
                for (int j = 0; j < i; j = j + 1) {
                    for (int k = 0; k <= j; k = k + 1) {
                        s = s + (double)(i * j - k);
                    }
                }
            }
            return s;
        }
        void main() {
            double acc = 0.0;
            int last = 0;
            for (int i = 0; i < n; i = i + 1) {
                last = fib(i);
                acc = acc + (double)last + tri(i);
                print(acc);
            }
            result[0] = acc;
            result[1] = (double)last;
        }
        """
        interp = Interpreter(compile_source(source))
        assert any(cf.region_of for cf in interp.cm.cfuncs)
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    # Exits by exception, by an early return and through a callee: the
    # region's cycle count must be exact wherever a run can stop.
    EXIT_BUDGETS = (None, 97, 1234)

    @pytest.mark.parametrize("budget", EXIT_BUDGETS)
    def test_host_error_inside_a_loop(self, budget):
        # x overflows to inf and fmod(inf, 7) raises ValueError, which the
        # interpreter records as a host-level trap.  Scil rejects % on
        # doubles, so the frem comes from rewriting the printed IR.
        source = """
        output double result[2];
        int n = 40;
        void main() {
            double x = 3.0;
            double s = 0.0;
            for (int i = 0; i < n; i = i + 1) {
                x = x * 1.0e300;
                s = s + x / 7.0;
            }
            result[0] = s;
        }
        """
        text = print_module(compile_source(source))
        assert "fdiv" in text
        interp = Interpreter(parse_module(text.replace("fdiv", "frem")))
        fast, reference = both_ways(interp, profile=True, cycle_budget=budget)
        assert fast["status"] == "trap"
        assert "ValueError" in fast["error"]
        assert fast == reference

    @pytest.mark.parametrize("budget", EXIT_BUDGETS)
    def test_trap_in_a_callee_called_from_a_loop(self, budget):
        source = """
        output double result[2];
        double data[4];
        int n = 64;
        double get(int i) {
            double v = data[i];
            return v + 1.0;
        }
        void main() {
            double s = 0.0;
            for (int i = 0; i < n; i = i + 1) { s = s + get(i); }
            result[0] = s;
        }
        """
        interp = Interpreter(compile_source(source))
        fast, reference = both_ways(interp, profile=True, cycle_budget=budget)
        assert fast["status"] == ("hang" if budget == 97 else "trap")
        assert fast == reference

    @pytest.mark.parametrize("budget", EXIT_BUDGETS)
    def test_early_return_from_a_loop(self, budget):
        source = """
        output double result[2];
        int n = 50;
        int first_square_above(int k) {
            for (int i = 0; i < n; i = i + 1) {
                if (i * i > k) { return i; }
            }
            return -1;
        }
        void main() {
            int acc = 0;
            for (int j = 0; j < 30; j = j + 1) {
                acc = acc + first_square_above(j * 7);
            }
            result[0] = (double)acc;
        }
        """
        interp = Interpreter(compile_source(source))
        fast, reference = both_ways(interp, profile=True, cycle_budget=budget)
        assert fast["status"] == ("ok" if budget is None else "hang")
        assert fast == reference

    @pytest.mark.parametrize("budget", EXIT_BUDGETS)
    @pytest.mark.parametrize("input_id", [1, 2, 3])
    def test_join_shapes(self, input_id, budget):
        """``JoinShapes`` plain (input 1), trapping inside an arm (input
        2) and running a 5,000-iteration loop inside an arm (input 3),
        which both budgets run out in."""
        interp = JoinShapes().make_interpreter(input_id)
        fast, reference = both_ways(interp, profile=True, cycle_budget=budget)
        expected = {1: ("ok", "hang", "hang"), 2: ("trap", "hang", "trap"),
                    3: ("ok", "hang", "hang")}[input_id]
        assert fast["status"] == expected[self.EXIT_BUDGETS.index(budget)]
        assert fast == reference


@pytest.fixture(scope="module")
def prepared_campaigns():
    """Prepared cold fft, hpccg and join-shape campaigns, and fully
    duplicated fft and hpccg ones (``fft/full``), shared by every
    example."""
    campaigns = {}
    for name in ("fft", "hpccg", JoinShapes.name, "fft/full", "hpccg/full"):
        w = subject(name.split("/")[0])
        campaigns[name] = Campaign(
            fully_duplicated(w.name) if name.endswith("/full") else w.make_interpreter(1),
            verifier=w.verifier(),
            entry=w.entry,
            budget_factor=w.budget_factor,
        )
        campaigns[name].prepare()
    return campaigns


def trial(campaign, site, site_index, budget):
    """One injected run: its checkpoint entry and everything it leaves."""
    interp = campaign.interp
    result = interp.run(
        campaign.entry,
        injection=campaign.fault_model.injection_for(site),
        cycle_budget=budget,
    )
    record = TrialRecord(site, campaign.classify(result), result.status, result.cycles)
    return trial_entry(0, site, site_index, record), observe(interp, result)


class TestRandomTrials:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_region_and_block_tables_agree(self, prepared_campaigns, data):
        """A site drawn from the fault population of fft, hpccg, the join
        shapes, or fully duplicated fft or hpccg (whose checks detect the
        fault in the per-block table, and must in region code too), under
        a random cycle budget or none drawn.  With none drawn the
        trial runs under the campaign's own budget, which bounds a fault
        that makes a loop run away."""
        name = data.draw(st.sampled_from(sorted(prepared_campaigns)))
        campaign = prepared_campaigns[name]
        index = data.draw(st.integers(0, len(campaign._sites) - 1))
        inst, count = campaign._sites[index]
        site = FaultSite(
            inst,
            data.draw(st.integers(1, count)),
            data.draw(st.integers(0, result_bits(inst) - 1)),
        )
        budget = data.draw(st.none() | st.integers(1, 2 * campaign.golden_cycles))
        if budget is None:
            budget = campaign.cycle_budget
        fast = trial(campaign, site, index, budget)
        with per_block_dispatch(campaign.interp.cm):
            reference = trial(campaign, site, index, budget)
        assert fast == reference


class TestCampaignEquivalence:
    @pytest.mark.parametrize("model", list(FAULT_MODELS))
    def test_cold_fft_trials(self, model):
        w = get_workload("fft")
        campaign = Campaign(
            w.make_interpreter(1),
            verifier=w.verifier(),
            entry=w.entry,
            budget_factor=w.budget_factor,
            fault_model=model,
        )
        fast = campaign_entries(campaign, 20, seed=11)
        cm = campaign.interp.cm
        sites = TrialPlan(campaign, 20, 11).sites
        in_region = [
            site
            for site in sites
            if cm.record_for(site.instruction).block_index
            in cm.cfuncs[cm.record_for(site.instruction).cfi].region_of
        ]
        assert in_region  # the injected region variants are exercised
        with per_block_dispatch(cm):
            reference = campaign_entries(campaign, 20, seed=11)
        assert fast == reference

    @pytest.mark.parametrize("model", list(FAULT_MODELS))
    @pytest.mark.parametrize("name", ["fft", "hpccg"])
    def test_cold_fully_duplicated_trials(self, name, model):
        """Lean code numbers a shadow value like its original and drops
        their check; a fault still reaches it through the frame or
        memory, so outcomes (``DETECTED`` ones included) and cycles stay
        those of the per-block table."""
        w = get_workload(name)
        campaign = Campaign(
            fully_duplicated(name),
            verifier=w.verifier(),
            entry=w.entry,
            budget_factor=w.budget_factor,
            fault_model=model,
        )
        fast = campaign_entries(campaign, 20, seed=11)
        assert any(entry["outcome"] == "detected" for entry in fast)
        with per_block_dispatch(campaign.interp.cm):
            reference = campaign_entries(campaign, 20, seed=11)
        assert fast == reference

    def test_mpi_is_two_ranks(self):
        w = get_workload("is")
        campaign = MpiCampaign(
            w.make_job(2, 1), verifier=w.verifier(), budget_factor=w.budget_factor
        )
        fast = campaign_entries(campaign, 16, seed=4)
        with per_block_dispatch(campaign.job.cm):
            reference = campaign_entries(campaign, 16, seed=4)
        assert fast == reference


class TestCheckSites:
    def test_one_site_per_static_check_after_warm_campaign(self):
        w = get_workload("hpccg")
        module = w.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        static = static_check_count(module)
        campaign = Campaign(
            w.make_interpreter(1, module=module),
            verifier=w.verifier(),
            entry=w.entry,
            budget_factor=w.budget_factor,
            warm_start=True,
        )
        cm = campaign.interp.cm
        assert len(cm.check_sites) == static
        result = run_campaign(campaign, 40, seed=2, n_jobs=1)
        assert len(cm.check_sites) == static

        # Detection messages name the failing check, whichever table and
        # whichever start (warm restore or cold) ran the trial.
        detected = [r.site for r in result.records if r.status == "detected"]
        assert detected
        interp = campaign.interp
        model = campaign.fault_model
        for site in detected[:6]:
            kwargs = dict(
                injection=model.injection_for(site),
                cycle_budget=campaign.cycle_budget,
            )
            fast = interp.run(w.entry, **kwargs).error
            with per_block_dispatch(cm):
                reference = interp.run(w.entry, **kwargs).error
            assert fast == reference
            assert fast.startswith("ipas.check")
        assert len(cm.check_sites) == static


@contextmanager
def call_counts():
    """Count ``Interpreter.call`` per callee name while active."""
    counts = Counter()
    real = Interpreter.call

    def call(self, cfi, args):
        counts[self.cfuncs[cfi].name] += 1
        return real(self, cfi, args)

    Interpreter.call = call
    try:
        yield counts
    finally:
        Interpreter.call = real


class _FixedSite:
    """A stand-in campaign whose sampler always returns one site, so a
    fault model's own ``sample_site`` adds its per-trial detail to it."""

    def __init__(self, site):
        self.site = site

    def sample_site(self, rng):
        return self.site


def leaf_sites(name, leaf):
    """(interpreter, golden cycles, [(instruction, last occurrence)]) for
    every value-producing instruction of ``leaf`` in workload ``name``."""
    w = get_workload(name)
    interp = w.make_interpreter(1)
    golden = interp.run(w.entry, profile=True)
    cm = interp.cm
    sites = []
    for record in cm.records.values():
        if cm.cfuncs[record.cfi].name == leaf:
            sites.append((record.inst, golden.profile[record.block_gid]))
    assert sites
    return interp, golden.cycles, sites


class TestInlinedLeaves:
    def test_golden_runs_make_no_leaf_calls(self):
        for name, leaf in (("hpccg", "idx3"), ("fft", "bit_reverse")):
            w = get_workload(name)
            interp = w.make_interpreter(1)
            with call_counts() as counts:
                assert interp.run(w.entry).status == "ok"
            assert counts[leaf] == 0, name
            with per_block_dispatch(interp.cm), call_counts() as counts:
                interp.run(w.entry)
            assert counts[leaf] > 0, name

    def test_injected_leaf_is_called(self):
        interp, cycles, sites = leaf_sites("hpccg", "idx3")
        kwargs = dict(injection=flip(sites[0][0], 1, 0), cycle_budget=3 * cycles)
        with call_counts() as counts:
            assert interp.run("main", **kwargs).injection_hit
        with per_block_dispatch(interp.cm), call_counts() as reference:
            interp.run("main", **kwargs)
        # The fallback runs every idx3 call of the trial, not just the
        # one that fires.
        assert counts["idx3"] == reference["idx3"] > 0

    @pytest.mark.parametrize(
        "name, leaf", [("hpccg", "idx3"), ("fft", "bit_reverse")]
    )
    def test_a_tripping_trial_calls_the_leaf_once(self, name, leaf, monkeypatch):
        """A tripping cold trial whose site lies in an inlined leaf makes
        one real call into it, the call holding the flip (the golden run
        makes none), at the site's first, middle and last occurrence, and
        ends as the counting route does."""
        w = get_workload(name)
        campaign = Campaign(
            w.make_interpreter(1), verifier=w.verifier(), entry=w.entry,
            budget_factor=w.budget_factor,
        )
        campaign.prepare()
        cm = campaign.interp.cm
        trips = []
        on_trip(monkeypatch, lambda interp, frame: trips.append(1))
        checked = 0
        for inst, count in campaign._sites:
            if cm.cfuncs[cm.record_for(inst).cfi].name != leaf:
                continue
            for occurrence in sorted({1, (count + 1) // 2, count}):
                site = FaultSite(inst, occurrence, result_bits(inst) - 1)
                assert campaign._call_at(site, campaign._fire_cycle(site)) is not None
                trips.clear()
                with call_counts() as counts:
                    record = campaign.run_site(site)
                assert (trips, counts[leaf]) == ([1], 1), (inst, occurrence)
                with monkeypatch.context() as counting:
                    counting.setattr(Campaign, "_fire_cycle", lambda self, site: None)
                    counted = campaign.run_site(site)
                assert trial_entry(0, site, 0, record) == trial_entry(0, site, 0, counted)
                checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("knobs", [
        {"fault_model": "intermittent:p=0.5,window=4"},
        {"protect": "full", "recover": True},
    ])
    def test_counting_trials_call_the_leaf_every_time(self, knobs):
        """Counting trials, under a multi-shot model or with recovery,
        make every call to the injected leaf a real call, as the per-block
        table does."""
        campaign = CampaignSpec(workload="hpccg", trials=1, **knobs).build()
        campaign.prepare()
        cm = campaign.interp.cm
        model = campaign.fault_model
        sites = [
            (inst, count) for inst, count in campaign._sites
            if cm.cfuncs[cm.record_for(inst).cfi].name == "idx3"
        ]
        for inst, count in sites[:2]:
            for occurrence in (1, count):
                site = model.sample_site(
                    _FixedSite(FaultSite(inst, occurrence, 3)), random.Random(5)
                )
                assert campaign._fire_cycle(site) is None
                with call_counts() as counts:
                    record = campaign.run_site(site)
                with per_block_dispatch(cm), call_counts() as reference:
                    expected = campaign.run_site(site)
                assert counts["idx3"] == reference["idx3"] > 1
                assert trial_entry(0, site, 0, record) == trial_entry(0, site, 0, expected)

    def test_a_leaf_entered_free_calls_only_the_call_holding_the_flip(self):
        """With free branches the leaf's entry block, a lone ``br``,
        charges nothing, so a call's entry cycle is its start.  ``main``
        makes two calls back to back, so a flip in the leaf's last block
        ends at the cycle the next call starts: the call that holds it is
        still the one real call, and the records match the per-block
        table's."""
        text = """
        @result = global [2 x f64] output

        define i64 @leaf(i64 %k) {
        entry:
          br label %loop
        loop:
          %i = phi i64 [ 0, %entry ], [ %next, %loop ]
          %acc = phi i64 [ %k, %entry ], [ %sum, %loop ]
          %sum = add i64 %acc, %i
          %next = add i64 %i, 1
          %c = icmp slt i64 %next, 4
          br i1 %c, label %loop, label %done
        done:
          %r = mul i64 %sum, 3
          ret i64 %r
        }

        define void @main() {
        entry:
          br label %head
        head:
          %j = phi i64 [ 0, %entry ], [ %jn, %head ]
          %t = phi i64 [ 0, %entry ], [ %tn, %head ]
          %v = call i64 @leaf(i64 %j)
          %w = call i64 @leaf(i64 %v)
          %tn = add i64 %t, %w
          %jn = add i64 %j, 1
          %cj = icmp slt i64 %jn, 10
          br i1 %cj, label %head, label %out
        out:
          %f = sitofp i64 %tn to f64
          %p = gep f64* @result, i64 0
          store f64 %f, f64* %p
          ret void
        }
        """
        interp = Interpreter(parse_module(text), cost_model=CostModel({"br": 0}))
        cm = interp.cm
        leaf = cm.cfuncs[cm.get_function_index("leaf")]
        assert leaf.costs[0] == 0
        with call_counts() as counts:
            assert interp.run().status == "ok"
        assert counts["leaf"] == 0
        campaign = Campaign(interp, budget_factor=3.0)
        campaign.prepare()
        checked = 0
        for inst, count in campaign._sites:
            if cm.record_for(inst).cfi != leaf.index:
                continue
            for occurrence in (1, count // 2, count // 2 + 1, count):
                site = FaultSite(inst, occurrence, 0)
                assert campaign._fire_cycle(site) is not None
                with call_counts() as counts:
                    record = campaign.run_site(site)
                assert counts["leaf"] == 1, (inst, occurrence)
                with per_block_dispatch(cm):
                    expected = campaign.run_site(site)
                assert trial_entry(0, site, 0, record) == trial_entry(0, site, 0, expected)
                checked += 1
        assert checked == 16

    def test_block_and_resume_code_is_never_inlined(self, monkeypatch):
        sources = compiled_sources(monkeypatch)
        for name in ("hpccg", "fft"):
            cm = get_workload(name).make_interpreter(1).cm
            for cf in cm.cfuncs:
                for bi, block in enumerate(cf.fn.blocks):
                    calls = [
                        i
                        for i in block.instructions
                        if isinstance(i, CallInst) and not i.callee.is_declaration
                    ]
                    for k in range(len(calls)):
                        cm.resume_block_fn(cf.index, bi, k)
                    for inst in block.instructions:
                        if id(inst) in cm.records:
                            cm.injected_block_fn(inst)
        inlined = re.compile(r"\b(_ij|_dok|q\d+_\w+)\b")
        kinds = Counter(filename.split()[0] for filename in sources)
        assert kinds["<block"] and kinds["<resume"] and kinds["<region"]
        for filename, source in sources.items():
            if not filename.startswith("<region"):
                assert not inlined.search(source), filename
        assert any(inlined.search(s) for s in sources.values())

    def test_leaf_defined_after_its_caller(self):
        source = """
        output double result[2];
        int n = 9;
        void main() {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + sq(i); }
            result[0] = (double)acc;
        }
        int sq(int x) { return x * x; }
        """
        interp = Interpreter(compile_source(source))
        with call_counts() as counts:
            fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert counts["sq"] == 9  # all from the per-block reference run
        assert fast == reference

    @pytest.mark.parametrize("model", list(FAULT_MODELS))
    @pytest.mark.parametrize(
        "name, leaf", [("hpccg", "idx3"), ("fft", "bit_reverse")]
    )
    def test_injection_into_a_leaf(self, name, leaf, model):
        """Every value-producing instruction of the leaf, at its first and
        last occurrence: the fallback runs the leaf's injected table."""
        interp, cycles, sites = leaf_sites(name, leaf)
        fault_model = FAULT_MODELS[model]()
        entry = get_workload(name).entry
        for inst, count in sites:
            for occurrence in sorted({1, count}):
                site = FaultSite(inst, occurrence, 2 % result_bits(inst))
                site = fault_model.sample_site(_FixedSite(site), random.Random(7))
                fast, reference = both_ways(
                    interp,
                    entry=entry,
                    injection=fault_model.injection_for(site),
                    profile=True,
                    cycle_budget=3 * cycles,
                )
                assert fast == reference, (inst, occurrence)

    @pytest.mark.parametrize("budget", TestGoldenEquivalence.EXIT_BUDGETS)
    def test_hang_inside_an_inlined_leaf_loop(self, budget):
        # fft's bit_reverse over 40 bits: the leaf's loop takes nearly all
        # the cycles, so both budgets run out inside an inlined call.
        source = """
        output double result[2];
        int n = 16;
        int bit_reverse(int k, int logn) {
            int r = 0;
            for (int b = 0; b < logn; b = b + 1) {
                r = (r << 1) | (k & 1);
                k = k >> 1;
            }
            return r;
        }
        void main() {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + bit_reverse(i, 40); }
            result[0] = (double)acc;
        }
        """
        interp = Interpreter(compile_source(source))
        with call_counts() as counts:
            fast = observe(interp, interp.run(profile=True, cycle_budget=budget))
        assert counts["bit_reverse"] == 0
        with per_block_dispatch(interp.cm):
            reference = observe(interp, interp.run(profile=True, cycle_budget=budget))
        assert fast["status"] == ("ok" if budget is None else "hang")
        assert fast == reference

    def test_failed_check_inside_an_inlined_leaf(self):
        """Protected hpccg whose idx3 duplicate computes ``iz * iz`` for
        ``iz * n``: the first call with ``iz`` = 0 passes, a later inlined
        call fails its check."""
        w = get_workload("hpccg")
        module = w.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        static = static_check_count(module)
        text = print_module(module)
        start = text.index("define i64 @idx3(")
        end = text.index("\n}\n", start)
        leaf = text[start:end]
        wrong = leaf.replace("%.dup.2 = mul i64 %iz, %n", "%.dup.2 = mul i64 %iz, %iz")
        assert wrong != leaf
        interp = w.make_interpreter(
            1, module=parse_module(text[:start] + wrong + text[end:])
        )
        cm = interp.cm
        assert len(cm.check_sites) == static
        with call_counts() as counts:
            fast, reference = both_ways(interp, entry=w.entry, profile=True)
        assert counts["idx3"] > 0  # the per-block reference run
        assert fast["status"] == "detected"
        assert fast["error"].startswith("ipas.check.i64 failed")
        assert "at idx3:entry" in fast["error"]
        assert fast == reference
        assert len(cm.check_sites) == static

    def test_call_depth_limit_at_an_inlined_call(self):
        """At the deepest frame the leaf call would exceed
        ``DEFAULT_MAX_DEPTH``: the guard falls back to the real call, which
        raises ``StackOverflow`` where the per-block table does.  The loop
        is long enough for a fast copy, whose guard holds the inline guard
        and so leaves the deepest frame to the checked loop."""
        source = """
        output double result[2];
        int sq(int x) { return x * x; }
        int deep(int d) {
            int s = 0;
            for (int i = 0; i < 6; i = i + 1) { s = s + sq(i + d); }
            return s + deep(d + 1);
        }
        void main() { result[0] = (double)deep(0); }
        """
        interp = Interpreter(compile_source(source))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 8 * Interpreter.DEFAULT_MAX_DEPTH))
        try:
            with call_counts() as counts:
                fast = observe(interp, interp.run(profile=True))
            assert counts["sq"] == 1  # the fallback at the deepest frame
            with per_block_dispatch(interp.cm):
                reference = observe(interp, interp.run(profile=True))
        finally:
            sys.setrecursionlimit(limit)
        assert fast["status"] == "trap"
        assert fast["error"] == "StackOverflow: call depth limit exceeded"
        assert fast == reference


def hoists(source):
    """(local, expression) of every loop invariant a region source
    computes."""
    return re.findall(r"^ *(_h\d+) = (.*)$", source, re.M)


class TestLoopInvariants:
    def test_hoistable_opcodes(self):
        """One instruction of every opcode: exactly the integer and float
        ``add``/``sub``/``mul``, the compares, ``gep`` and ``select`` may
        be computed where their block may not run, since no int, float or
        bool operand makes them raise."""
        m = Module("t")
        leaf = m.add_function("leaf", I64, [])
        i, x, b = const_int(3), const_float(1.5), const_bool(True)
        p = AllocaInst(I64)
        insts = [
            *(BinaryOperator(op, i, i) for op in INT_ARITH_OPS + INT_LOGIC_OPS),
            *(BinaryOperator(op, x, x) for op in FP_ARITH_OPS),
            ICmpInst("slt", i, i), FCmpInst("olt", x, x), SelectInst(b, i, i),
            CastInst("sitofp", i, F64), CastInst("fptosi", x, I64),
            CastInst("zext", b, I64), CastInst("sext", b, I64),
            CastInst("trunc", i, I1), CastInst("bitcast", i, F64),
            GEPInst(p, i), p, LoadInst(p), StoreInst(i, p),
            AtomicRMWInst("add", p, i), PhiNode(I64), CallInst(leaf, []),
            BranchInst(None, leaf.add_block("entry")), RetInst(i), UnreachableInst(),
        ]
        opcodes = {inst.opcode for inst in insts}
        assert opcodes == set(DEFAULT_OPCODE_COSTS) - {"ipas.check"}
        assert {inst.opcode for inst in insts if compiler._hoistable(inst)} == {
            "add", "sub", "mul", "fadd", "fsub", "fmul", "icmp", "fcmp", "gep", "select",
        }

    def test_an_arm_never_taken_hoists_nothing_that_raises(self, monkeypatch):
        """``%v`` reads a float from a neighbouring global, as a wild store
        would leave it; ``%z`` reads an int 0.  The loop's arm, never taken,
        shifts ``%v`` and divides by ``%z``: computed at the loop's entry,
        either would raise.  The product and compare that decide the arm
        are hoisted, the shift and the division are not."""
        text = """
        @gf = global [2 x f64]
        @gi = global [2 x i64]
        @result = global [2 x f64] output

        define void @main() {
        entry:
          %p = gep i64* @gi, i64 -10
          %v = load i64, i64* %p
          %z = load i64, i64* @gi
          br label %head
        head:
          %i = phi i64 [ 0, %entry ], [ %next, %latch ]
          %c = icmp slt i64 %i, 10
          br i1 %c, label %body, label %done
        body:
          %m = mul i64 %v, 3
          %big = icmp sgt i64 %m, 100
          br i1 %big, label %arm, label %latch
        arm:
          %s = shl i64 %v, 3
          %q = sdiv i64 7, %z
          br label %latch
        latch:
          %next = add i64 %i, 1
          br label %head
        done:
          %f = sitofp i64 %i to f64
          %o = gep f64* @result, i64 0
          store f64 %f, f64* %o
          ret void
        }
        """
        sources = compiled_sources(monkeypatch)
        interp = Interpreter(parse_module(text))
        source = sources["<region main.head>"]
        assert [rhs for _, rhs in hoists(source)] == ["r1 * 3", "_h0 > 100"]
        assert len(fast_copies(source)) == 1  # the shift and division are in it
        assert checked(source).count("<<") == checked(source).count("state.trap_div()") == 1
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference

    LEAF = """
    output double result[2];
    int n = 6;
    int cell(int a, int b, int m) { return a + b * m * 3; }
    void main() {
        int k = n;
        double acc = 0.0;
        for (int i = 0; i < k; i = i + 1) {
            for (int j = 0; j < k; j = j + 1) { acc = acc + (double)cell(j, i, k); }
        }
        result[0] = acc;
    }
    """

    def leaf_kernel(self, monkeypatch):
        """(interpreter, ``cell``'s product ``b * m``) of :attr:`LEAF`, whose
        inner loop inlines ``cell`` and computes none of its products."""
        sources = compiled_sources(monkeypatch)
        interp = Interpreter(compile_source(self.LEAF))
        (source,) = [s for f, s in sources.items() if f.startswith("<region main.")]
        inner = loop_iteration(checked(source), int(dispatch_tests(source)[0]))
        assert re.search(r"_in\d+ and _c( \+ \d+)? != _ca", inner) and " * " not in inner
        cm = interp.cm
        fn = cm.cfuncs[cm.get_function_index("cell")].fn
        product = next(i for b in fn.blocks for i in b.instructions if i.opcode == "mul")
        return interp, product

    def test_an_invariant_product_inside_an_inlined_leaf(self, monkeypatch):
        """The golden run, and a tripping flip of ``cell``'s ``b * m`` at
        its first, middle and last call: the call holding the flip is real,
        every other one uses the hoisted product, and each run ends as the
        per-block table's."""
        interp, product = self.leaf_kernel(monkeypatch)
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference
        golden = fast
        for occurrence in (1, 17, 36):
            kwargs = golden_trip(interp, "main", product, occurrence)
            fast, reference = both_ways(
                interp, injection=flip(product, occurrence, 4), **kwargs
            )
            assert fast["injection_hit"] and fast["cells"] != golden["cells"]
            assert fast == reference, occurrence

    @pytest.mark.parametrize("model", ["intermittent", "persistent"])
    def test_a_multi_shot_site_inside_an_inlined_leaf(self, model, monkeypatch):
        """A multi-shot model whose site is ``cell``'s ``b * m`` counts
        through the real calls, as the per-block table does."""
        interp, product = self.leaf_kernel(monkeypatch)
        fault_model = FAULT_MODELS[model]()
        site = fault_model.sample_site(
            _FixedSite(FaultSite(product, 5, 2)), random.Random(7)
        )
        fast, reference = both_ways(
            interp, injection=fault_model.injection_for(site), profile=True
        )
        assert fast["injection_hit"]
        assert fast == reference


# -- deopt exits: lean region code before the trip and between resync events ---


class _Stop(Exception):
    """Ends a run at a chosen block top."""


def region_entry(interp, entry, cf, header):
    """The run state at the first top of ``header`` in ``cf`` in a golden
    run, or None when the run never gets there."""
    state = []

    def stop(f, s):
        state.append(
            (list(f), list(s.cells), s.cycles, s.sp, s.depth, list(s.output_log))
        )
        raise _Stop

    with per_block_dispatch(interp.cm):
        cf.region_fns[header] = stop
        try:
            interp.run(entry)
        except _Stop:
            pass
    return state[0] if state else None


def restore(interp, start):
    """Put ``interp`` back at a ``region_entry`` state; returns the frame."""
    frame, cells, cycles, sp, depth, output_log = start
    interp.reset(cells=False)
    interp.cells = list(cells)
    interp.cycles = cycles
    interp.sp = sp
    interp.depth = depth
    interp.output_log = list(output_log)
    interp.budget = interp.rbudget = interp.NO_BUDGET
    return list(frame)


def top_state(interp, frame):
    return (interp.cycles, digest(frame), digest(interp.cells), interp.sp)


def block_tops(interp, cf, start, header, members, wanted=()):
    """Step block by block from a ``region_entry`` state to the function's
    return.  Returns the (block, cycles) tops of the first stay in the
    region plus the first top after it, the state at the tops whose
    positions are in ``wanted``, and the function's result."""
    frame = restore(interp, start)
    tops, states = [], {}
    bi = header
    with per_block_dispatch(interp.cm):
        while bi >= 0:
            if tops is not None:
                if len(tops) in wanted:
                    states[len(tops)] = top_state(interp, frame)
                tops.append((bi, interp.cycles))
                if bi not in members:
                    stay, tops = tops, None
            bi = cf.block_fns[bi](frame, interp)
    if tops is not None:
        stay = tops
    return stay, states, (interp.ret, interp.cycles, digest(interp.cells))


def finish(interp, cf, frame, bi):
    """Run a frame from block ``bi`` to its return on the lean table,
    with the hang budget as the region budget (lean regions read
    ``rbudget``)."""
    interp.trk = None
    interp.rbudget = interp.budget
    while bi >= 0:
        bi = cf.region_fns[bi](frame, interp)
    return interp.ret, interp.cycles, digest(interp.cells)


class _Rung:
    """A stand-in ladder rung: a cycle count and no frames, so it never
    matches."""

    __slots__ = ("index", "cycles", "frames")

    def __init__(self, index, cycles):
        self.index = index
        self.cycles = cycles
        self.frames = ()


def golden_tops(interp, entry, budget=None):
    """(function index, block, cycles) at every block top of a per-block
    run."""
    tops = []
    with per_block_dispatch(interp.cm):
        for cf in interp.cm.cfuncs:
            cf.region_fns = [
                lambda f, s, _fn=fn, _at=(cf.index, bi): (
                    tops.append(_at + (s.cycles,)) or _fn(f, s)
                )
                for bi, fn in enumerate(cf.region_fns)
            ]
        interp.run(entry, cycle_budget=budget)
    return tops


def every_block_top(interp, entry, budget):
    """The cycle count at every block top of a per-block run."""
    return [cycles for _, _, cycles in golden_tops(interp, entry, budget)]


def inner_iteration(interp, entry, name, recovery=None):
    """(function, its largest region, tops) for the costliest iteration of
    that region's innermost loop in a golden run: the (function index,
    block, cycles) tops from its header's top to the next one's, that
    last top included, callees' blocks too."""
    cm = interp.cm
    cf = cm.cfuncs[cm.get_function_index(name)]
    nest, members = max(regions_of(cf), key=lambda r: len(r[1]))
    region = cm._compiler._regions[(cf.index, nest)]
    index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
    loop = min(
        (lp for lp in LoopInfo(cf.fn).loops if index[id(lp.header)] in members),
        key=lambda lp: len(lp.blocks),
    )
    inner = index[id(loop.header)]
    tops = golden_tops(interp, entry)
    starts = [k for k, (cfi, bi, _) in enumerate(tops) if (cfi, bi) == (cf.index, inner)]
    iterations = [
        tops[a : b + 1] for a, b in zip(starts, starts[1:])
        if all(bi == inner or cfi != cf.index or bi not in region.entries
               for cfi, bi, _ in tops[a + 1 : b])
    ]
    return cf, region, max(iterations, key=lambda it: it[-1][2] - it[0][2])


def on_trip(monkeypatch, hook):
    """Call ``hook(interp, frame)`` at the top of every trip: the step
    (``Interpreter.step``) before the flip whose block charge passes a
    region budget below the hang budget."""
    step = Interpreter.step

    def stepped(self, frame, cfi, bi):
        if (
            not self.inj_hit and self.rbudget < self.budget
            and self.cycles + self.cfuncs[cfi].costs[bi] > self.rbudget
        ):
            hook(self, frame)
        return step(self, frame, cfi, bi)

    monkeypatch.setattr(Interpreter, "step", stepped)


def stop_at_trip(monkeypatch, log):
    """Make every trip log the state at its top and end the run."""

    def trip(interp, frame):
        log.append((interp.cycles, digest(interp.cells), interp.sp))
        raise _Stop

    on_trip(monkeypatch, trip)


def tripped(interp, entry, inst, fire, entries, log):
    """The state at which a run tripping at golden cycle ``fire`` (with
    ``stop_at_trip`` armed) trips."""
    log.clear()
    with pytest.raises(_Stop):
        interp.run(
            entry, injection=flip(inst, 1, 0), fire=fire,
            call_at=call_cycle(interp, entries, inst, fire),
        )
    (state,) = log
    return state


def live_frames(interp, frames):
    """The tracked frames ``frames`` as a golden resync compares them:
    each frame's position and a digest of the slots block-by-block
    execution may still read (``CompiledModule.live_slots``)."""
    last = len(frames) - 1
    out = []
    for i, (cfi, bi, calls, regs, _, _) in enumerate(frames):
        slots = interp.cm.live_slots(cfi, bi, None if i == last else calls - 1)
        out.append((cfi, bi, calls, digest([regs[k] for k in slots])))
    return tuple(out)


@contextmanager
def rendezvous_log(monkeypatch):
    """Make every resync compare fail and never give up; yields the list
    of (rung, cycles, live tracked frames, sp) compares made."""
    log = []

    def match(self, snap, trk):
        log.append((snap.index, self.cycles, live_frames(self, trk.frames), self.sp))
        return False

    monkeypatch.setattr(Interpreter, "_resync_match", match)
    monkeypatch.setattr(_TrackState, "MAX_RESYNC_FAILS", 1 << 30)
    yield log


def first_value_in(cm, cf, bi):
    """The first value block ``bi`` of ``cf`` computes."""
    return next(
        i for i in cf.fn.blocks[bi].instructions
        if id(i) in cm.records and not isinstance(i, PhiNode)
    )


def first_value(cm, name):
    """The first value function ``name`` computes."""
    fn = cm.cfuncs[cm.get_function_index(name)].fn
    return next(
        i for b in fn.blocks for i in b.instructions
        if id(i) in cm.records and not isinstance(i, PhiNode)
    )


def golden_trip(interp, entry, inst, occurrence=1):
    """A tripping run's ``fire`` and ``call_at`` keywords for the block
    entry in which ``inst`` executes for the ``occurrence``-th time, from
    a golden run's recording."""
    entries = interp.run(entry, profile=True).entries
    fire = entries[interp.cm.record_for(inst).block_gid][occurrence - 1]
    return {"fire": fire, "call_at": call_cycle(interp, entries, inst, fire)}


def armed_run(interp, entry, budget, rung_cycles, flip_in=None, trip=None):
    """A resync-armed run whose flip changes nothing (the first value
    ``flip_in``, default ``entry``, computes, corrupted to itself) and
    whose rungs sit at ``rung_cycles``.  It trips as ``trip`` says, by
    default at the flip's golden cycle (:func:`golden_trip`).  Returns
    what the run leaves behind."""
    inst = first_value(interp.cm, flip_in or entry)
    if trip is None:
        trip = golden_trip(interp, entry, inst)
    spec = InjectionSpec(inst, 1, "once", corrupt=lambda v: v)
    rungs = [_Rung(i, c) for i, c in enumerate(sorted(set(rung_cycles)))]
    ladder = SnapshotLadder(rungs, 1, 0, None, entry)
    result = interp.run(
        entry, injection=spec, cycle_budget=budget, profile=True,
        warm=WarmStart(ladder, None, resync=True), **trip,
    )
    assert result.injection_hit
    return observe(interp, result)


def storm(interp, entry, budget, rung_cycles, monkeypatch):
    """An ``armed_run`` in which every rung is a failed compare: each is a
    deopt exit.  Returns what the run leaves behind and its compares."""
    with rendezvous_log(monkeypatch) as log:
        return armed_run(interp, entry, budget, rung_cycles), log


def assert_same_compares(cm, fast_log, log):
    """The region run made the per-block run's compares, in order, except
    some whose innermost frame is a leaf called from a region member: the
    region inlines that call unless it steps the block after a deopt exit,
    and a rung inside an inlined call is overshot."""
    made = set(fast_log)
    assert [entry for entry in log if entry in made] == fast_log
    leaves = {cf.index for cf in cm.cfuncs if compiler._is_leaf(cf.fn)}
    for entry in log:
        if entry not in made:
            (caller, bi, _, _), (callee, _, _, _) = entry[2][-2:]
            assert callee in leaves and bi in cm.cfuncs[caller].region_of, entry[:2]


def regions_of(cf):
    for header in sorted(set(cf.region_of.values())):
        yield header, members_of(cf, header)


def members_of(cf, header):
    return {bi for bi, h in cf.region_of.items() if h == header}


def dispatched(cm, cfi, bi):
    """Whether the lean dispatch loop can see block ``bi`` of function
    ``cfi`` other than by stepping it: it is no region member, or it is
    one the region is entered at."""
    header = cm.cfuncs[cfi].region_of.get(bi)
    return header is None or bi in cm._compiler._regions[(cfi, header)].entries


class TestDeoptExits:
    """Lean region code against the per-block table where a run must stop
    inside a region: at a tripping trial's flip block, and at a
    resync-armed warm trial's rungs.  A deopt exit leaves every slot the
    block may read, ``cycles``, ``sp`` and cells as the per-block loop
    holds them at the top of its test point, and the dispatch loop steps
    onto the event from there."""

    @pytest.mark.parametrize("name", WORKLOADS + (JoinShapes.name,))
    def test_exit_at_every_member(self, name, monkeypatch):
        """A resync-armed run whose flip changes nothing, with a rung at
        the first top of every region member the golden run reaches: lean
        code compares at every rung the per-block run compares at (rungs
        inside inlined leaves aside), with its cycles, ``sp`` and live
        frames, many of them at members no dispatch loop tests, and the
        run ends identically."""
        w = subject(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        first = {}
        for cfi, bi, cycles in golden_tops(interp, w.entry):
            if bi in cm.cfuncs[cfi].region_of:
                first.setdefault((cfi, bi), cycles)
        rungs = sorted(first.values())
        fast, fast_log = storm(interp, w.entry, None, rungs, monkeypatch)
        with per_block_dispatch(cm):
            reference, log = storm(interp, w.entry, None, rungs, monkeypatch)
        assert fast == reference
        assert fast["status"] == "ok"
        assert_same_compares(cm, fast_log, log)
        stepped = [e for e in fast_log if not dispatched(cm, *e[2][-1][:2])]
        assert len(stepped) >= 3, len(stepped)

    @pytest.mark.parametrize("name", WORKLOADS + (JoinShapes.name,))
    def test_lean_exit_at_every_member(self, name, monkeypatch):
        """The lean twin of ``test_exit_at_every_member``, through
        ``Interpreter.call``'s trip loop: from the first region entry of
        each function the golden run reaches, a tripping run whose flip is
        at the top of a member in its region's first or second activation
        trips there with the per-block cycles, cells and ``sp``, whichever
        test point before it left region code.  Its frame may differ from
        the per-block frame only in slots nothing reads before writing
        them (a slot the first activation assigned stays stale in the
        second until it assigns it again): with those slots poisoned the
        function still returns what the per-block run returns."""
        w = subject(name)
        interp = w.make_interpreter(1)
        entries = interp.run(w.entry, profile=True).entries
        at_trip = []

        def trip(interp, frame):
            at_trip.append((interp.cycles, digest(interp.cells), interp.sp, frame))
            raise _Stop

        on_trip(monkeypatch, trip)
        exits = stale_slots = 0
        for cf in interp.cm.cfuncs:
            starts = [
                (start[2], header, start)
                for header, _ in regions_of(cf)
                for start in [region_entry(interp, w.entry, cf, header)]
                if start is not None
            ]
            if not starts:
                continue
            _, header, start = min(starts, key=lambda s: s[0])
            _, _, result = block_tops(interp, cf, start, header, set())
            frame = restore(interp, start)
            tops, activations = {}, Counter()
            bi, prev, region_of = header, None, dict(cf.region_of)
            with per_block_dispatch(interp.cm):
                while bi >= 0:
                    h = region_of.get(bi)
                    if h is not None:
                        activations[h] += region_of.get(prev) != h
                        key = (activations[h], bi)
                        if activations[h] <= 2 and key not in tops:
                            tops[key] = (
                                interp.cycles, list(frame),
                                digest(interp.cells), interp.sp,
                            )
                    prev, bi = bi, cf.block_fns[bi](frame, interp)
            inst = first_value(interp.cm, cf.name)
            for (_, bi), (cycles, regs, cells, sp) in tops.items():
                fire = cycles + cf.costs[bi]
                at_trip.clear()
                with pytest.raises(_Stop):
                    interp.run(
                        w.entry, injection=flip(inst, 1, 0), fire=fire,
                        call_at=call_cycle(interp, entries, inst, fire),
                    )
                ((got_cycles, got_cells, got_sp, frame),) = at_trip
                assert (got_cycles, got_cells, got_sp) == (cycles, cells, sp), (
                    cf.name, bi,
                )
                stale = [
                    slot for slot, value in enumerate(regs)
                    if repr(frame[slot]) != repr(value)
                ]
                if stale:
                    for slot in stale:
                        frame[slot] = None
                    assert finish(interp, cf, frame, bi) == result, (cf.name, bi)
                stale_slots += len(stale)
                exits += 1
        assert exits >= 10
        assert stale_slots

    @pytest.mark.parametrize("name, function", [("hpccg", "spmv_slab"), ("fft", "fft_row")])
    def test_budgets_run_out_at_every_bound(self, name, function, monkeypatch):
        """One iteration of the innermost loop of ``function``'s nest, the
        costliest: for each test point ``T`` in it, charged to ``p``, with
        bound ``R``, the lean region steps ``T`` at a hang budget of ``p +
        R - 1`` (a deopt exit) and runs on past it at ``p + R``, hangs at
        those budgets and trips at golden cycles ``p + R`` and ``p + R + 1``,
        exactly where the per-block table does.  At the iteration's last
        member a hang, a trip and a trap (a corrupter that faults) land
        where the per-block table has them too."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        cf, region, iteration = inner_iteration(interp, w.entry, function)
        entries = interp.run(w.entry, profile=True).entries
        inst = first_value(cm, function)
        exits = []  # the top of each deopt exit's test point
        real_step = Interpreter.step
        monkeypatch.setattr(
            Interpreter, "step",
            lambda self, f, cfi, bi: exits.append(self.cycles) or real_step(self, f, cfi, bi),
        )

        def both(**kwargs):
            fast = observe(interp, interp.run(w.entry, **kwargs))
            with per_block_dispatch(cm):
                reference = observe(interp, interp.run(w.entry, **kwargs))
            assert fast == reference, kwargs
            return fast

        points = [
            (bi, cycles) for cfi, bi, cycles in iteration[:-1]
            if cfi == cf.index and bi in region.bounds
        ]
        assert points
        full = 0
        for bi, top in points:
            p, bound = top + cf.costs[bi], region.bounds[bi]
            exits.clear()
            assert both(cycle_budget=p + bound - 1)["status"] == "hang"
            assert top in exits, bi
            exits.clear()
            assert both(cycle_budget=p + bound)["status"] == "hang"
            assert top not in exits, bi
            full += any(c - p == bound for _, _, c in iteration if c > p)
        assert full  # some bound is the charge of the path the iteration took

        log = []
        stop_at_trip(monkeypatch, log)
        for bi, top in points:
            p, bound = top + cf.costs[bi], region.bounds[bi]
            for fire in (p + bound, p + bound + 1):
                fast = tripped(interp, w.entry, inst, fire, entries, log)
                with per_block_dispatch(cm):
                    assert tripped(interp, w.entry, inst, fire, entries, log) == fast
        monkeypatch.undo()

        cfi, last, top = [t for t in iteration[:-1] if t[0] == cf.index][-1]
        assert last in members_of(cf, region.header) and cfi == cf.index
        p = top + cf.costs[last]
        assert both(cycle_budget=p - 1)["status"] == "hang"
        inst = first_value_in(cm, cf, last)
        occurrence = list(entries[cm.record_for(inst).block_gid]).index(p) + 1
        trip = dict(fire=p, call_at=call_cycle(interp, entries, inst, p))

        def fault(value):
            raise MemoryFault("the flip faults")

        assert both(injection=flip(inst, occurrence, 0), **trip)["status"] == "ok"
        trapped = both(
            injection=InjectionSpec(inst, occurrence, "once", corrupt=fault), **trip
        )
        assert (trapped["status"], trapped["cycles"]) == ("trap", p)

    @pytest.mark.parametrize("name", ["fft", "hpccg", JoinShapes.name])
    def test_shifted_rungs_never_resync(self, name, monkeypatch):
        """A rung is compared only at its own cycle count.  A real ladder
        whose rungs claim to stand 5 cycles later than they do: a
        resync-armed run whose flip changes nothing meets each rung's
        state 5 cycles before the rung's count, where nothing compares
        it, so it never resyncs and finishes ``ok`` with the golden cycle
        count and value, as the per-block table does."""
        w = subject(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        golden = interp.capture_ladder(w.entry, stride=interp.run(w.entry).cycles // 64)
        shifted = SnapshotLadder(
            [
                WarmSnapshot(r.index, r.cycles + 5, r.cells, r.sp, r.frames, r.out_log, r.profile)
                for r in golden.snapshots
            ],
            golden.stride, golden.golden_cycles, golden.golden_value, w.entry,
        )
        inst = first_value(cm, w.entry)
        trip = golden_trip(interp, w.entry, inst)
        spec = InjectionSpec(inst, 1, "once", corrupt=lambda v: v)
        monkeypatch.setattr(_TrackState, "MAX_RESYNC_FAILS", 1 << 30)

        def run():
            result = interp.run(
                w.entry, injection=spec, warm=WarmStart(shifted, None, resync=True),
                **trip,
            )
            return (result.status, result.cycles, repr(result.value),
                    result.resynced, digest(interp.cells))

        finished = ("ok", golden.golden_cycles, repr(golden.golden_value), False)
        fast = run()
        assert fast[:4] == finished
        with per_block_dispatch(cm):
            assert run() == fast

    @pytest.mark.parametrize("name, leaf", [("hpccg", "waxpby"), ("fft", "bit_reverse")])
    def test_trip_inside_an_inlined_leaf(self, name, leaf, monkeypatch):
        """Rungs at every block top of a leaf call that region code
        inlines, and at the first top after the call outside any leaf: a
        resync-armed run overshoots the rungs inside the inlined call (the
        next test point after it finds the count past them and hands its
        top to the dispatch loop, which compares there), unless the
        dispatch loop steps the calling block, making the call real; the
        per-block run compares at every one.  Both end identically."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        cfi = cm.get_function_index(leaf)
        real = set()  # the counts at which the lean golden run calls the leaf
        original = Interpreter.call

        def call(self, callee, args):
            if callee == cfi:
                real.add(self.cycles)
            return original(self, callee, args)

        monkeypatch.setattr(Interpreter, "call", call)
        interp.run(w.entry)
        monkeypatch.undo()
        tops = golden_tops(interp, w.entry)
        start = next(
            k for k, t in enumerate(tops)
            if t[:2] == (cfi, 0) and t[2] not in real and k > len(tops) // 2
        )
        end = next(
            k for k in range(start, len(tops))
            if not compiler._is_leaf(cm.cfuncs[tops[k][0]].fn)
        )
        rungs = [c for _, _, c in tops[start : end + 1]]
        assert len(rungs) >= 4
        fast, fast_log = storm(interp, w.entry, None, rungs, monkeypatch)
        with per_block_dispatch(cm):
            reference, log = storm(interp, w.entry, None, rungs, monkeypatch)
        assert fast == reference
        assert [e[0] for e in log] == list(range(len(rungs)))
        if fast_log[0] == log[0]:  # the calling block stepped: a real call
            assert fast_log == log
        else:
            assert fast_log == [log[-1]]
        assert (fast_log == log) == (name == "fft")

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_rendezvous_at_every_rung(self, name, monkeypatch):
        """A resync-armed golden run with a rung at every seventh block
        top: the region run compares at exactly the per-block run's rungs,
        cycles, ``sp`` and live frames, except rungs inside inlined leaves,
        and ends identically."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        rungs = every_block_top(interp, w.entry, None)[3::7]
        fast, fast_log = storm(interp, w.entry, None, rungs, monkeypatch)
        with per_block_dispatch(interp.cm):
            reference, log = storm(interp, w.entry, None, rungs, monkeypatch)
        assert fast == reference
        assert fast["status"] == "ok"
        assert len(log) == len({c for c in rungs if c >= log[0][1]})
        assert_same_compares(interp.cm, fast_log, log)

    @pytest.mark.parametrize("budget", TestGoldenEquivalence.EXIT_BUDGETS)
    def test_hang_at_exit_budgets(self, budget, monkeypatch):
        """Rungs at every block top, and a hang budget: the hang is raised
        at the per-block run's cycle count, inside a call from a loop and
        inside an inlined leaf's loop alike."""
        source = """
        output double result[2];
        int n = 12;
        int bit_reverse(int k, int logn) {
            int r = 0;
            for (int b = 0; b < logn; b = b + 1) {
                r = (r << 1) | (k & 1);
                k = k >> 1;
            }
            return r;
        }
        double row(int m) {
            double s = 0.0;
            for (int i = 0; i < m; i = i + 1) { s = s + (double)bit_reverse(i, 6); }
            return s;
        }
        void main() {
            double acc = 0.0;
            for (int j = 0; j < n; j = j + 1) { acc = acc + row(j); }
            result[0] = acc;
        }
        """
        interp = Interpreter(compile_source(source))
        rungs = every_block_top(interp, "main", budget)
        fast, fast_log = storm(interp, "main", budget, rungs, monkeypatch)
        with per_block_dispatch(interp.cm):
            reference, log = storm(interp, "main", budget, rungs, monkeypatch)
        assert fast["status"] == ("ok" if budget is None else "hang")
        assert fast == reference
        assert len(log) == len({c for c in rungs if c >= log[0][1]})
        assert_same_compares(interp.cm, fast_log, log)

    @pytest.mark.parametrize("name, function", [("hpccg", "spmv_slab"), ("fft", "fft_row")])
    def test_a_hang_at_every_cycle_between_rungs(self, name, function, monkeypatch):
        """A resync-armed run, its flip in ``main`` changing nothing, with
        a rung at every 97th block top and at every other top of one
        iteration of ``function``'s costliest innermost loop (an fft
        butterfly, a ``spmv_slab`` iteration), and a hang budget at every
        cycle of that iteration, after the flip: lean code hangs at the
        per-block table's cycle and makes its compares on the way."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        _, _, iteration = inner_iteration(interp, w.entry, function)
        rungs = every_block_top(interp, w.entry, None)[::97]
        rungs += [cycles for _, _, cycles in iteration[1::2]]
        trip = golden_trip(interp, w.entry, first_value(interp.cm, w.entry))
        assert trip["fire"] < iteration[0][2]
        for budget in range(iteration[0][2], iteration[-1][2] + 1):
            with rendezvous_log(monkeypatch) as fast_log:
                fast = armed_run(interp, w.entry, budget, rungs, trip=trip)
            with per_block_dispatch(interp.cm), rendezvous_log(monkeypatch) as log:
                reference = armed_run(interp, w.entry, budget, rungs, trip=trip)
            assert fast["status"] == "hang"
            assert fast == reference, budget
            assert_same_compares(interp.cm, fast_log, log)

    def test_resync_inside_a_call_from_region_code(self, monkeypatch):
        """fft's main calls fft_row from region code.  A warm trial restored
        at the last rung of one fft_row call, whose flip right there
        changes nothing, resyncs at the first rung of the next call, made
        from main's lean region: main's tracking record must read the
        calling block and its call count, and its frame the slots read
        after the call, as the per-block loop's do."""
        w = get_workload("fft")
        campaign = Campaign(
            w.make_interpreter(1), verifier=w.verifier(), entry=w.entry,
            budget_factor=w.budget_factor, warm_start=True,
        )
        ladder = campaign.ensure_ladder()
        interp = campaign.interp
        cm = interp.cm
        main = cm.cfuncs[cm.get_function_index(w.entry)]
        row = cm.cfuncs[cm.get_function_index("fft_row")]
        sites = {
            bi for bi in main.region_of
            if any(
                isinstance(i, CallInst) and i.callee.name == "fft_row"
                for i in main.fn.blocks[bi].instructions
            )
        }
        assert sites

        def value(wf):
            return next(
                (i for i in row.fn.blocks[wf.bi].instructions
                 if id(i) in cm.records and not isinstance(i, PhiNode)),
                None,
            )

        def in_call(snap):
            return (
                [wf.cfi for wf in snap.frames] == [main.index, row.index]
                and snap.frames[0].bi in sites
            )

        def calls(snap):
            return snap.profile[cm.block_gids[id(main.fn.blocks[snap.frames[0].bi])]]

        pairs = [
            (prev, rung)
            for prev, rung in zip(ladder.snapshots, ladder.snapshots[1:])
            if in_call(prev) and in_call(rung) and calls(prev) < calls(rung)
            and value(prev.frames[-1]) is not None
        ]
        assert pairs
        matched = []
        real = Interpreter._resync_match

        def match(self, snap, trk):
            ok = real(self, snap, trk)
            matched.append((snap.index, ok))
            return ok

        monkeypatch.setattr(Interpreter, "_resync_match", match)
        for prev, rung in pairs[:3]:
            inst = value(prev.frames[-1])
            seen = prev.profile[cm.records[id(inst)].block_gid]
            site = FaultSite(inst, seen + 1, 0)
            assert ladder.plan_site(cm, site) == (prev, seen)
            fire = campaign._fire_cycle(site)
            assert ladder.plan_site(cm, site, fire) == (prev, 0)
            spec = InjectionSpec(inst, seen + 1, "once", corrupt=lambda v: v)
            for table in (nullcontext(), per_block_dispatch(cm)):
                matched.clear()
                with table:
                    result = interp.run(
                        w.entry, injection=spec, cycle_budget=campaign.cycle_budget,
                        warm=WarmStart(ladder, prev, resync=True), fire=fire,
                        call_at=campaign._call_at(site, fire),
                    )
                assert result.resynced
                assert matched[-1] == (rung.index, True)


def inlined_iteration(interp, entry, leaf):
    """(the leaf's compiled function, tops) for the first iteration of the
    loop of ``leaf`` inside a call that the lean golden run inlines: the
    (function index, block, cycles) tops of a per-block run from the loop
    header's top to its next one, that last top included."""
    cm = interp.cm
    cf = cm.cfuncs[cm.get_function_index(leaf)]
    ((header, _),) = regions_of(cf)
    real = set()  # the counts at which the lean run calls the leaf
    original = Interpreter.call

    def call(self, cfi, args):
        if cfi == cf.index:
            real.add(self.cycles)
        return original(self, cfi, args)

    Interpreter.call = call
    try:
        interp.run(entry)
    finally:
        Interpreter.call = original
    tops = golden_tops(interp, entry)
    k = next(
        k for k, (cfi, bi, cycles) in enumerate(tops)
        if (cfi, bi) == (cf.index, 0) and cycles not in real
    )
    heads = [j for j in range(k, len(tops)) if tops[j][:2] == (cf.index, header)]
    return cf, tops[heads[0] : heads[1] + 1]


class TestDeferredCharges:
    """Lean and profiled region code charge cycles per stretch (see
    ``_Compiler._gen_member``): a block that cannot raise adds its cost to
    a pending charge that the next point able to see the count settles.
    One iteration of each loop below, the deferred stretches inside
    inlined leaf loops included, against the per-block table."""

    #: (workload, function, leaf): one all-arms ``spmv_slab`` iteration and
    #: one fft butterfly (the costliest of the function's innermost loop),
    #: and one iteration of each inlined leaf loop
    CASES = [
        ("hpccg", "spmv_slab", False), ("fft", "fft_row", False),
        ("hpccg", "dot_range", True), ("hpccg", "waxpby", True),
        ("fft", "bit_reverse", True),
    ]

    @staticmethod
    def iteration(interp, entry, function, leaf):
        if leaf:
            return inlined_iteration(interp, entry, function)[1]
        return inner_iteration(interp, entry, function)[2]

    @pytest.mark.parametrize("name, function, leaf", CASES)
    def test_a_hang_at_every_cycle(self, name, function, leaf):
        """A hang budget at every cycle of the iteration: the lean and the
        profiled run hang at the per-block table's block and cycle, with
        its profile, so a hang test deferred across blocks reports the
        first block whose charge crossed the budget."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        iteration = self.iteration(interp, w.entry, function, leaf)
        first, last = iteration[0][2], iteration[-1][2]
        assert len(iteration) >= 3
        for budget in range(first, last + 1):
            fast, reference = both_ways(
                interp, entry=w.entry, profile=True, cycle_budget=budget
            )
            assert fast["status"] == "hang"
            assert fast == reference, budget

    @pytest.mark.parametrize("name, function, leaf", CASES)
    def test_a_trap_at_every_block(self, name, function, leaf):
        """A tripping fault whose corrupter raises, at the first value of
        every block of the iteration that has one: the run traps at the
        block's charged cycle, as on the per-block table, so the deopt
        exit before the flip and the inline guard read the exact count."""
        w = get_workload(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        iteration = self.iteration(interp, w.entry, function, leaf)
        entries = interp.run(w.entry, profile=True).entries

        def fault(value):
            raise MemoryFault("the flip faults")

        trapped = 0
        for cfi, bi, top in iteration[:-1]:
            cf = cm.cfuncs[cfi]
            values = [
                i for i in cf.fn.blocks[bi].instructions
                if id(i) in cm.records and not isinstance(i, PhiNode)
            ]
            if not values:
                continue
            p = top + cf.costs[bi]
            inst = values[0]
            occurrence = list(entries[cm.record_for(inst).block_gid]).index(p) + 1
            fast, reference = both_ways(
                interp, entry=w.entry, fire=p,
                call_at=call_cycle(interp, entries, inst, p),
                injection=InjectionSpec(inst, occurrence, "once", corrupt=fault),
            )
            assert fast["status"] == "trap"
            # a call's value is corrupted when the call returns
            assert fast["cycles"] == p or isinstance(inst, CallInst)
            assert fast == reference, (cf.name, bi)
            trapped += 1
        assert trapped >= 2

    def test_a_failed_check_inside_a_stretch(self, monkeypatch):
        """Fully duplicated hpccg whose ``dot_range`` duplicate squares
        the first factor: the check fails in the first iteration of an
        inlined ``dot_range`` loop, after the header's deferred charge,
        where the per-block table fails it."""
        w = get_workload("hpccg")
        module = w.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        text = print_module(module)
        start = text.index("define f64 @dot_range(")
        end = text.index("\n}\n", start)
        leaf = text[start:end]
        product = re.search(r"(%\.dup\.\d+) = fmul f64 (%\S+), (%\S+)\n", leaf)
        wrong = leaf.replace(
            product.group(0),
            f"{product.group(1)} = fmul f64 {product.group(2)}, {product.group(2)}\n",
        )
        sources = compiled_sources(monkeypatch)
        interp = w.make_interpreter(
            1, module=parse_module(text[:start] + wrong + text[end:])
        )
        with call_counts() as counts:
            fast = observe(interp, interp.run(w.entry, profile=True))
        assert counts["dot_range"] == 1  # the call from block code
        with per_block_dispatch(interp.cm):
            reference = observe(interp, interp.run(w.entry, profile=True))
        assert fast["status"] == "detected"
        assert "at dot_range:for.body2" in fast["error"]
        assert fast == reference
        # the inlined loop charges once, before its first check
        loop = leaf_loops(checked(sources["<region main.while.cond13>"]))[0]
        assert loop.count("_c += ") == 1
        assert loop.index("_c += ") < loop.index("check_failed")


#: the kernel of ``TestCountedLoops``: ``run``'s loop over ``[lo, hi)``
#: inlines the loop-free leaf ``offset`` and prints and reads per
#: iteration, reading far below ``data`` at iteration ``bad``; ``main``
#: inlines the leaf ``total``, whose counted loop runs over the same range
COUNTED = """
output double result[2];
int lo = 0;
int hi = 8;
int bad = -1;
double data[32];

int offset(int i, int base) { return i - base; }

double total(int a, int b) {
    double s = 0.0;
    for (int i = a; i < b; i = i + 1) { s = s + data[(i - a) % 32]; }
    return s;
}

void run(int a, int b, int k0) {
    double acc = 0.0;
    for (int i = a; i < b; i = i + 1) {
        int k = offset(i, a);
        if (k == k0) { acc = acc + data[k - 100000000]; }
        acc = acc + data[k % 32];
        print(k);
    }
    result[0] = acc;
}

void main() {
    for (int j = 0; j < 32; j = j + 1) { data[j] = (double)(j * 3 + 1); }
    int a = lo;
    int b = hi;
    run(a, b, bad);
    for (int r = 1; r < 2; r = r + 1) { result[r] = total(a, b); }
}
"""

#: the largest int64, the last bound ``i < b`` lets ``i + 1`` reach
INT64_MAX = (1 << 63) - 1


@pytest.fixture(scope="module")
def counted_kernel():
    """An interpreter of :data:`COUNTED` and the blocks of its loops (the
    loop of ``run`` and of ``total``, ``offset``'s one block)."""
    interp = Interpreter(compile_source(COUNTED))
    cm = interp.cm
    blocks = []
    for name in ("run", "offset", "total"):
        cf = cm.cfuncs[cm.get_function_index(name)]
        loops = LoopInfo(cf.fn).loops
        inner = [b for lp in loops for b in lp.blocks if b.name != "entry"]
        blocks += [b for b in cf.fn.blocks if b in inner or name == "offset"]
    return interp, blocks


class TestCountedLoops:
    def test_counted_loops_run_fast_copies(self, monkeypatch):
        """``run``'s loop over ``[a, b)`` (it inlines ``offset``) and
        ``total``'s, inlined into ``main`` and in its own region, each have
        one fast copy whose guard tests for at least five iterations,
        ``i`` and ``b`` for ints and the iterations' costliest charge
        against the region budget; ``run``'s
        also holds the inline guard.  Its iteration makes no test point, no
        hang test, no real call, no inline guard and no move of ``i``.
        ``main``'s loop that inlines ``total`` is no counted loop: the
        inlined loop's charge has no bound."""
        sources = compiled_sources(monkeypatch)
        Interpreter(compile_source(COUNTED))
        copies = {f: fast_copies(src) for f, src in sources.items() if f.startswith("<")}
        assert len(copies["<region total.for.cond1>"]) == 1
        main = [c for f, cs in copies.items() if f.startswith("<region main.") for c in cs]
        assert len(main) == 2  # the fill loop, inlined ``total``'s loop
        (loop,) = copies["<region run.for.cond1>"]
        guard = loop.splitlines()[0]
        assert re.search(
            r"if r\d+ - r\d+ >= 5 and type\(r\d+\) is int and type\(r\d+\) is int and _in\d+",
            guard,
        )
        assert re.search(r"and _c \+ \d+ \* \(r\d+ - r\d+\) <= _bud:$", guard)
        body = loop.split("\n", 1)[1]
        assert "> _bud" not in body and "> state.budget" not in body
        assert "state.call(" not in body and "_ca" not in body
        i = re.search(r"for (\w+) in range", loop).group(1)
        assert not re.search(rf"^ *{i} = ", body.rsplit("\n", 2)[0], re.M)

    def test_wild_values_run_the_checked_loop(self, counted_kernel):
        """``lo`` a bool and ``hi`` a float, as a wild store would leave
        them: ``range`` would start at 1 rather than ``True`` and raise on
        the float, so the fast copies stand aside and the checked loops run
        as the per-block table does."""
        interp, _ = counted_kernel
        for lo, hi in ((True, 6), (0, 6.5), (-2, 2.0), (False, True)):
            interp.set_global_override("lo", lo)
            interp.set_global_override("hi", hi)
            try:
                fast, reference = both_ways(interp, entry="main", cycle_budget=100_000)
            finally:
                interp.set_global_override("lo", 0)
                interp.set_global_override("hi", 8)
            assert fast == reference, (lo, hi)

    BREAK = """
    output double result[1];
    int lo = 0;
    int hi = 12;
    int stop = 7;
    double data[32];

    void main() {
        for (int j = 0; j < 32; j = j + 1) { data[j] = (double)(j * 3 + 1); }
        double s = 0.0;
        int a = lo;
        int b = hi;
        int at = stop;
        for (int r = 0; r < 3; r = r + 1) {
            for (int i = a; i < b; i = i + 1) {
                if (i == at) { break; }
                s = s + data[i];
            }
            s = s * 2.0;
        }
        result[0] = s;
    }
    """

    def test_a_loop_with_a_break_stays_checked(self, monkeypatch):
        """The inner loop of ``main``'s nest also leaves by a ``break``,
        into the outer loop's body: it is no counted loop (a ``continue``
        to the dispatch loop would resume a ``for``), so only the fill loop
        has a fast copy, and the nest runs as the per-block table does with
        the break taken at once, later or never."""
        sources = compiled_sources(monkeypatch)
        interp = Interpreter(compile_source(self.BREAK))
        copies = [
            c for f, s in sources.items() if f.startswith("<region ") for c in fast_copies(s)
        ]
        assert len(copies) == 1 and "range(r0, 32)" in copies[0]
        for stop in (-1, 0, 3, 11, 20):
            interp.set_global_override("stop", stop)
            fast, reference = both_ways(interp, entry="main", profile=True)
            assert fast["status"] == "ok"
            assert fast == reference, stop

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_counted_loop_agrees_with_the_per_block_table(self, counted_kernel, data):
        """A range drawn empty (``lo >= hi``), from a negative ``lo``, next
        to the largest int64 or up to it from a small ``lo`` (a run the
        budget ends), an out-of-bounds read at an iteration drawn or none,
        and a hang budget drawn inside the run or none.  The run, and a
        single-shot trip of the first value of a loop block at each of its
        golden entries (the call holding a flip in ``offset`` or ``total``
        made real), leave the same status, cycles, cells, output and
        profile on the region and the per-block tables."""
        interp, blocks = counted_kernel
        kind = data.draw(st.sampled_from(["small", "negative", "top", "unbounded"]))
        n = data.draw(st.integers(-3, 12))
        lo = {
            "small": data.draw(st.integers(0, 40)),
            "negative": data.draw(st.integers(-(1 << 40), -1)),
            "top": INT64_MAX - data.draw(st.integers(0, 12)),
            "unbounded": data.draw(st.integers(-5, 5)),
        }[kind]
        hi = INT64_MAX if kind == "unbounded" else min(lo + n, INT64_MAX)
        bad = data.draw(st.integers(-6, 11))
        for name, value in (("lo", lo), ("hi", hi), ("bad", bad)):
            interp.set_global_override(name, value)
        cap = 6_000 if kind == "unbounded" else 100_000
        golden = interp.run("main", profile=True, cycle_budget=cap)
        budget = data.draw(st.one_of(st.just(cap), st.integers(1, golden.cycles + 1)))
        fast, reference = both_ways(interp, entry="main", cycle_budget=budget, profile=True)
        assert fast == reference
        if kind == "unbounded" and bad < 0:
            assert fast["status"] == "hang"
        if golden.status != "ok":
            return
        budget = 4 * golden.cycles
        cm = interp.cm
        bit = data.draw(st.integers(0, 62))
        for block in blocks:
            values = [i for i in block.instructions if id(i) in cm.records]
            if not values:
                continue
            inst = values[-1]
            entries = golden.entries
            for occurrence, fire in enumerate(entries[cm.record_for(inst).block_gid], 1):
                trip = dict(fire=fire, call_at=call_cycle(interp, entries, inst, fire))
                fast, reference = both_ways(
                    interp, entry="main", cycle_budget=budget,
                    injection=flip(inst, occurrence, bit % result_bits(inst)), **trip,
                )
                assert fast == reference, (block.name, occurrence)


#: a tuple assignment in generated code, and its targets
TUPLE_MOVE = re.compile(r"^ *(\w+(?:, \w+)+) = ", re.M)


class TestCountingDeopts:
    """A counting run (an injection without ``fire``) runs the injected
    function's injectable region variant, which loads, exits and deopts
    by slot liveness as lean code does (``regalloc.Frame``).  One
    ``spmv_slab`` all-arms iteration and one fft butterfly, against the
    per-block table."""

    @pytest.mark.parametrize("name, function", [("hpccg", "spmv_slab"), ("fft", "fft_row")])
    def test_a_hang_at_every_cycle(self, name, function, monkeypatch):
        """A counting run whose site is in the iteration's innermost
        member, at a hang budget at every cycle of the iteration: each
        test point's deopt exit leaves every slot its block may read as
        the per-block table has it there, and the run hangs at the
        per-block table's block and cycle, with its site count.  No
        generated source calls back into the interpreter to deopt or
        reads its own locals."""
        sources = all_sources(monkeypatch)
        w = get_workload(name)
        interp = w.make_interpreter(1)
        cm = interp.cm
        cf, region, iteration = inner_iteration(interp, w.entry, function)
        injection = flip(first_value_in(cm, cf, region.order[0]), 10**9, 0)
        live = cm._compiler._live(cf).top
        steps = []
        real_step = Interpreter.step

        def step(self, frame, cfi, bi):
            at = (cfi, bi, self.cycles)
            steps.append((at, [repr(frame[s]) for s in sorted(live[bi])]))
            return real_step(self, frame, cfi, bi)

        monkeypatch.setattr(Interpreter, "step", step)

        def counted():
            result = interp.run(w.entry, injection=injection, cycle_budget=budget)
            return observe(interp, result), interp.inj_seen

        first, last = iteration[0][2], iteration[-1][2]
        seen = 0
        for budget in range(first, last + 1):
            fast = counted()
            with per_block_dispatch(cm):
                assert counted() == fast, budget
            assert fast[0]["status"] == "hang"
            seen = max(seen, fast[1])
        assert seen
        deopts = dict(steps)
        assert {bi for (_, bi, _) in deopts} >= set(region.bounds) & {
            bi for _, bi, _ in iteration
        }
        frames = {}
        with per_block_dispatch(cm):
            cf.region_fns = [
                lambda f, st, _fn=fn, _bi=bi: (
                    frames.setdefault((cf.index, _bi, st.cycles), [
                        repr(f[s]) for s in sorted(live[_bi])
                    ]) and _fn(f, st)
                )
                for bi, fn in enumerate(cf.region_fns)
            ]
            interp.run(w.entry, cycle_budget=last + 1)
        for at, values in deopts.items():
            assert values == frames[at], at
        for _, source in sources:
            assert "state.deopt" not in source and "_locals" not in source


class TestCoalescedMoves:
    """Numbered region code leaves SSA without moves it does not need: a
    phi shares a local with the values that feed it where their live
    ranges do not interfere, a copy is read at its source, a pure value
    read once later in its member is folded into its reader, and the
    moves left are single assignments.  Frames, exits and deopt exits
    write back what each value's current holder holds."""

    #: a value defined mid-iteration (``y``) feeds the header phi ``x`` on
    #: the back edge and the exit phi ``last`` on the ``break`` edge
    SOURCE = """
    output double result[2];
    int n = 9;
    void main() {
        double x = 1.0;
        double last = 0.0;
        int i = 0;
        while (i < n) {
            double y = x * 1.5 + 0.25;
            if (y > 40.0) { last = y; break; }
            x = y;
            i = i + 1;
        }
        result[0] = x + last;
        result[1] = (double)i;
    }
    """

    def test_the_butterfly_iteration_moves_nothing_twice(self, monkeypatch):
        """The fft butterfly's inner iteration holds no tuple assignment and
        no bare copy of a register or hoist: its back edge is one move
        cycle through one temporary, and the phis read only after the loop
        (a dead chain through the outer loops) move nothing."""
        sources = compiled_sources(monkeypatch)
        get_workload("fft").make_interpreter(1)
        butterfly = checked(sources["<region fft_row.for.cond7>"])
        inner = loop_iteration(butterfly, int(dispatch_tests(butterfly)[0]))
        assert not TUPLE_MOVE.search(inner)
        assert not re.search(r"^ *r\d+ = (r\d+|_h\d+)$", inner, re.M)
        assert len(re.findall(r"^ *_t\d+ = ", inner, re.M)) == 1

    def test_no_wide_tuple_moves(self, monkeypatch):
        """No lean region of the six workloads, plain or fully duplicated,
        assigns a tuple of more than 3 targets (a leaf's moves are single
        assignments too), and none loads a slot into a local it never
        reads."""
        sources = all_sources(monkeypatch)
        lean = 0
        for name, protect, module in workload_modules():
            sources.clear()
            Interpreter(module)
            for filename, source in sources:
                if not filename.startswith("<region "):
                    continue
                lean += 1
                for targets in TUPLE_MOVE.findall(source):
                    assert targets.count(",") < 3, (name, protect, filename, targets)
                for local in re.findall(r"^ *(r\d+) = f\[\d+\]$", source, re.M):
                    assert re.search(rf"\b{local}\b(?! = f\[)", source), (filename, local)
        assert lean > 40

    def test_a_value_feeding_a_header_and_an_exit_phi(self, monkeypatch):
        """``y`` shares the header phi ``x``'s local, and the ``break`` edge
        writes it to ``last``'s slot.  A hang at every cycle of the run and
        a trip at every occurrence of every value of the loop, each at the
        top of its member or at the loop exit, end as on the per-block
        table."""
        sources = compiled_sources(monkeypatch)
        interp = Interpreter(compile_source(self.SOURCE))
        (source,) = [s for f, s in sources.items() if f.startswith("<region main.")]
        assert not TUPLE_MOVE.search(source)
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference
        cm = interp.cm
        cf = cm.cfuncs[cm.get_function_index("main")]
        for budget in range(1, fast["cycles"] + 2):
            fast, reference = both_ways(interp, cycle_budget=budget)
            assert fast == reference, budget
        entries = interp.run("main", profile=True).entries
        trips = 0
        for block in cf.fn.blocks:  # the loop's members and what follows it
            for inst in block.instructions:
                if id(inst) not in cm.records or isinstance(inst, PhiNode):
                    continue
                occurrences = len(entries[cm.record_for(inst).block_gid])
                for occurrence in range(1, occurrences + 1):
                    kwargs = golden_trip(interp, "main", inst, occurrence)
                    fast, reference = both_ways(
                        interp, injection=flip(inst, occurrence, min(52, result_bits(inst) - 1)),
                        **kwargs,
                    )
                    assert fast["injection_hit"]
                    assert fast == reference, (block.name, occurrence)
                    trips += 1
        assert trips > 30

    def test_back_to_back_counted_calls(self, monkeypatch):
        """Two calls to functions that are no leaf, one right after the
        other, keep ``_c`` None between them (the second's spill for a
        resync reads no count); a trap in the second call and a hang at
        every cycle still leave the per-block count.  So do fft ``main``'s
        two ``fft_row`` calls, with a product between them that numbering
        turns into a copy: a hang at each cycle around the pair's seam
        leaves the per-block count too."""
        source = """
        output int result[2];
        int a[4];
        int n = 6;
        void touch(int i) { a[i % 4] = a[i % 4] + i; }
        void first(int i) { touch(i); }
        void second(int i) { touch(i + 1); if (i == t) { result[1] = a[i - 1000]; } }
        int t = 99;
        void main() {
            for (int i = 0; i < n; i = i + 1) { first(i); second(i); }
            result[0] = a[0] + a[1] + a[2] + a[3];
        }
        """
        sources = compiled_sources(monkeypatch)
        module = compile_source(source)
        interp = Interpreter(module)
        (region,) = [s for f, s in sources.items() if f.startswith("<region main.")]
        call = r"state\.call\(\d+, \(r\d+,\)\)\n *"
        spill = r"if _rec: (?:f\[\d+\] = \w+; )*_rec\[1\] = \d+; _rec\[2\] = 1\n *"
        assert re.search(call + spill + call + r"_c = state\.cycles", region)
        fast, reference = both_ways(interp, profile=True)
        assert fast["status"] == "ok"
        assert fast == reference
        for budget in range(1, fast["cycles"] + 2):
            fast, reference = both_ways(interp, cycle_budget=budget)
            assert fast == reference, budget
        trapped = compile_source(source.replace("int t = 99;", "int t = 3;"))
        fast, reference = both_ways(Interpreter(trapped))
        assert fast["status"] == "trap"
        assert fast == reference

        w = get_workload("fft")
        interp = w.make_interpreter(1)
        region = sources["<region main.for.cond16>"]
        first, second = [m.end() for m in re.finditer(r"state\.call\(1, .*\n", region)]
        between = region[first:second].splitlines()[:-1]
        assert [line.split(":")[0].strip() for line in between] == ["if _rec"], between
        cm = interp.cm
        row = cm.cfuncs[cm.get_function_index("fft_row")]
        entries = interp.run(w.entry, profile=True).entries[cm.block_gids[id(row.fn.blocks[0])]]
        seam = entries[1] - row.costs[0]  # the first call returns, the second starts
        for budget in range(seam - 3, seam + 4):
            fast, reference = both_ways(interp, entry=w.entry, cycle_budget=budget)
            assert fast == reference, budget


class TestProfiledTable:
    def test_wrapped_region_entries_leave_the_profile(self, monkeypatch):
        """A profiled run dispatches through ``profiled_fns``, built by
        block position: wrapping every ``region_fns`` entry (as a call
        counter does) changes nothing a profiled run observes, its
        profile included."""
        interp = get_workload("fft").make_interpreter(1)
        reference = observe(interp, interp.run(profile=True))
        for cf in interp.cm.cfuncs:
            monkeypatch.setattr(cf, "region_fns", [
                lambda f, s, _fn=fn: _fn(f, s) for fn in cf.region_fns
            ])
        result = interp.run(profile=True)
        assert sum(result.profile) > 30_000
        assert observe(interp, result) == reference


class TestTrackedFastPaths:
    def test_detached_frames_finish_on_region_fns(self, monkeypatch):
        """Once resync gives up, the resync loops still on the stack (here
        fft's main) finish through the run's region table: here, a
        profiled run, the profiled twins of ``region_fns``' entries."""
        w = get_workload("fft")
        interp = w.make_interpreter(1)
        cm = interp.cm
        main = cm.cfuncs[cm.get_function_index(w.entry)]
        rungs = every_block_top(interp, w.entry, None)[1000::997]
        headers = set(main.region_of.values())
        entries = Counter()
        profiled_tables = cm.profiled_tables

        def counted_tables():
            tables = list(profiled_tables())
            fns = tables[main.index] = list(tables[main.index])
            for header in headers:
                fns[header] = lambda f, s, _fn=fns[header], _h=header: (
                    entries.update([_h]) or _fn(f, s)
                )
            return tables

        assert all(
            profiled_tables()[main.index][h] is not main.region_fns[h] for h in headers
        )
        monkeypatch.setattr(cm, "profiled_tables", counted_tables)
        monkeypatch.setattr(Interpreter, "_resync_match", lambda self, snap, trk: False)
        monkeypatch.setattr(_TrackState, "MAX_RESYNC_FAILS", 1)
        fast = armed_run(interp, w.entry, None, rungs, flip_in="fft_row")
        assert sum(entries.values()) > 0
        with per_block_dispatch(cm):
            reference = armed_run(interp, w.entry, None, rungs, flip_in="fft_row")
        assert fast == reference

    def test_tracked_runs_call_few_block_functions(self, monkeypatch):
        """A resync-armed fft run that stays armed to its last rung calls
        block functions at least five times less often than per-block
        dispatch: between its rungs it runs lean region code."""
        w = get_workload("fft")
        interp = w.make_interpreter(1)
        cm = interp.cm
        rungs = every_block_top(interp, w.entry, None)[::211]
        trip = golden_trip(interp, w.entry, first_value(cm, "fft_row"))
        calls = Counter()
        wrapped = {}
        for cf in cm.cfuncs:
            for fn in cf.block_fns:
                wrapped[id(fn)] = lambda f, s, _fn=fn: calls.update("b") or _fn(f, s)
            for table in ("block_fns", "region_fns"):
                monkeypatch.setattr(
                    cf, table, [wrapped.get(id(fn), fn) for fn in getattr(cf, table)]
                )
        with rendezvous_log(monkeypatch) as log:
            fast = armed_run(interp, w.entry, None, rungs, "fft_row", trip)
            fast_calls = calls["b"]
            calls.clear()
            with per_block_dispatch(cm):
                reference = armed_run(interp, w.entry, None, rungs, "fft_row", trip)
        assert fast == reference
        assert len(log) > 100
        assert calls["b"] >= 5 * fast_calls, (calls["b"], fast_calls)
