"""Tripping trials: single-shot flips fired at their golden cycle.

A transient-1bit (or other single-shot) campaign trial without recovery
is the golden run up to its flip, so it runs the plain dispatch tables to
the flip block's golden entry cycle and *trips* there (``Interpreter.step``
runs that one block instance in its injectable variant).  Every other
injected run *counts* the site's executions through the shared injectable
variants.  Trial records cannot tell which dynamic instance was flipped
(outcome, status and cycles often agree), so the oracle here compares the
whole end state of each trial between the two routes, cold and warm.
"""

import hashlib
import random

import pytest

from repro import compile_source
from repro.faults import Campaign, CampaignSpec, MpiCampaign
from repro.faults.model import FaultSite, result_bits
from repro.faults.parallel import run_campaign
from repro.interp import Interpreter
from repro.interp import compiler
from repro.interp.compiler import _is_leaf
from repro.ir.instructions import CallInst
from repro.recover import RecoveryPolicy, WarmStart
from repro.workloads import get_workload
from tests.test_interp_edge_cases import STACK_KERNEL
from tests.test_regions import WORKLOADS, on_trip


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def build_interp(name):
    """(interpreter, verifier, entry) of a workload or of ``STACK_KERNEL``."""
    if name == "stack":
        return Interpreter(compile_source(STACK_KERNEL)), None, "main"
    w = get_workload(name)
    return w.make_interpreter(1), w.verifier(), w.entry


def category(campaign, inst):
    """Where a site sits: a region member, a block outside every region,
    a leaf (inlined into region code), or a reentrant call site."""
    cm = campaign.interp.cm
    record = cm.record_for(inst)
    cf = cm.cfuncs[record.cfi]
    if isinstance(inst, CallInst) and not inst.callee.is_declaration:
        callee = cm.cfuncs[cm.get_function_index(inst.callee.name)]
        if callee is cf:
            return "recursive call"
    if _is_leaf(cf.fn) and cf.name != campaign.entry:
        return "leaf"
    if record.block_index in cf.region_of:
        return "region member"
    return "block"


def oracle_sites(campaign, name, per_category=2):
    """Up to ``per_category`` instructions of each category, each at its
    first, middle and last occurrence and its lowest and highest bit."""
    by_category = {}
    for inst, count in campaign._sites:
        by_category.setdefault(category(campaign, inst), []).append((inst, count))
    rng = random.Random(name)
    sites = []
    for key in sorted(by_category):
        population = by_category[key]
        for inst, count in rng.sample(population, min(per_category, len(population))):
            for occurrence in sorted({1, (count + 1) // 2, count}):
                for bit in (0, result_bits(inst) - 1):
                    sites.append((key, FaultSite(inst, occurrence, bit)))
    return by_category.keys(), sites


class EndState:
    """Records the end state of every ``Interpreter.run`` a campaign makes.
    A resynced run proved that its remaining execution equals the golden
    suffix, so its cells and output log are the golden run's."""

    def __init__(self, monkeypatch, interp, golden):
        self.golden = golden
        self.states = []
        self.trips = 0
        run = Interpreter.run

        def recorded_run(this, *args, **kwargs):
            result = run(this, *args, **kwargs)
            if this is interp and kwargs.get("injection") is not None:
                cells, log = (
                    self.golden if result.resynced
                    else (digest(interp.cells), digest(interp.output_log))
                )
                self.states.append((
                    result.status, result.cycles, repr(result.value),
                    result.injection_hit, cells, log,
                ))
            return result

        def counted_trip(this, frame):
            self.trips += 1

        monkeypatch.setattr(Interpreter, "run", recorded_run)
        on_trip(monkeypatch, counted_trip)

    def of(self, campaign, site):
        self.states.clear()
        campaign.run_site(site)
        (state,) = self.states
        return state


@pytest.fixture(scope="module", params=WORKLOADS + ("stack",))
def oracle(request):
    """A cold and a warm transient-1bit campaign over one interpreter, the
    oracle sites and the golden end state."""
    name = request.param
    interp, verifier, entry = build_interp(name)
    cold, warm = (
        Campaign(interp, verifier=verifier, entry=entry, budget_factor=3.0,
                 warm_start=warm_start)
        for warm_start in (False, True)
    )
    cold.prepare()
    warm.prepare()
    warm.ensure_ladder()
    interp.run(entry)
    golden = (digest(interp.cells), digest(interp.output_log))
    categories, sites = oracle_sites(cold, name)
    return name, interp, cold, warm, golden, categories, sites


class TestFlippedInstanceOracle:
    def test_tripping_and_counting_trials_flip_the_same_instance(
        self, oracle, monkeypatch
    ):
        """Status, cycles, value, injection hit, cells and output log of
        every oracle site agree between the default engine and the
        counting route forced on, cold and warm with resync."""
        name, interp, cold, warm, golden, categories, sites = oracle
        end = EndState(monkeypatch, interp, golden)
        default = {
            (i, kind): end.of(campaign, site)
            for i, (_, site) in enumerate(sites)
            for kind, campaign in (("cold", cold), ("warm", warm))
        }
        assert end.trips > 0
        monkeypatch.setattr(Campaign, "_fire_cycle", lambda self, site: None)
        end.trips = 0
        for i, (key, site) in enumerate(sites):
            counted = end.of(cold, site)
            for kind, campaign in (("cold", cold), ("warm", warm)):
                assert default[i, kind] == counted, (name, key, site, kind)
            assert end.of(warm, site) == counted, (name, key, site, "warm")
        assert end.trips == 0

    def test_the_sites_cover_every_category(self, oracle):
        name, _, cold, _, _, categories, _ = oracle
        wanted = {"region member", "block"}
        if name in ("hpccg", "fft", "comd", "amg"):
            wanted.add("leaf")
        if name == "stack":
            wanted.add("recursive call")
        assert wanted <= set(categories)


# -- routing ----------------------------------------------------------------------


def refuse_trips(monkeypatch):
    def trip(interp, frame):
        raise AssertionError("this trial must count, not trip")

    on_trip(monkeypatch, trip)


def stack_campaign(**knobs):
    return CampaignSpec(source=STACK_KERNEL, trials=40, seed=11, **knobs).build()


class TestRouting:
    def test_the_recursive_call_site_counts(self):
        campaign = stack_campaign()
        campaign.prepare()
        reentrant = [
            inst for inst, _ in campaign._sites
            if category(campaign, inst) == "recursive call"
        ]
        assert reentrant
        for inst, count in campaign._sites:
            site = FaultSite(inst, count, 0)
            fire = campaign._fire_cycle(site)
            assert (fire is None) == (inst in reentrant), inst

    @pytest.mark.parametrize("knobs", [
        {"fault_model": "intermittent:p=0.5,window=4"},
        {"fault_model": "intermittent:p=0.5,window=4", "warm_start": True},
        {"protect": "full", "recover": True},
        {"protect": "full", "recover": True, "warm_start": True},
    ])
    def test_multi_shot_and_recovery_trials_count(self, knobs, monkeypatch):
        campaign = stack_campaign(**knobs)
        refuse_trips(monkeypatch)
        run_campaign(campaign, 40, seed=11, n_jobs=1)
        assert campaign._entries is None

    def test_mpi_trials_count(self, monkeypatch):
        w = get_workload("is")
        campaign = MpiCampaign(
            w.make_job(2, 1), verifier=w.verifier(), budget_factor=w.budget_factor
        )
        refuse_trips(monkeypatch)
        run_campaign(campaign, 10, seed=3, n_jobs=1)
        assert campaign._entries is None

    def test_runs_that_cannot_trip_refuse_a_fire_cycle(self):
        """A fire cycle needs a single-shot injection without recovery and
        comes with a call cycle, and a resync-armed injected run needs
        one."""
        campaign = stack_campaign(warm_start=True)
        ladder = campaign.ensure_ladder()
        interp = campaign.interp
        inst, count = campaign._sites[0]
        site = FaultSite(inst, count, 0)
        fire = campaign._fire_cycle(site)
        assert fire is not None
        trip = {"fire": fire, "call_at": campaign._call_at(site, fire)}
        injection = campaign.fault_model.injection_for(site)
        with pytest.raises(ValueError):
            interp.run(**trip)
        with pytest.raises(ValueError):
            interp.run(injection=injection, fire=fire)
        with pytest.raises(ValueError):
            interp.run(injection=injection, call_at=trip["call_at"])
        with pytest.raises(ValueError):
            interp.run(injection=injection, recovery=RecoveryPolicy(),
                       **trip)
        with pytest.raises(ValueError):
            interp.run(injection=injection,
                       warm=WarmStart(ladder, None, resync=True))
        snap = ladder.plan_site(interp.cm, site, fire)[0]
        assert snap is not None
        with pytest.raises(ValueError):
            interp.run(injection=injection,
                       warm=WarmStart(ladder, snap, resync=False), **trip)

    def test_single_shot_trials_trip_without_a_compile_per_site(self, monkeypatch):
        """A cold fft campaign trips every trial and compiles one
        injectable block variant per distinct flip block, at most."""
        w = get_workload("fft")
        campaign = Campaign(
            w.make_interpreter(1), verifier=w.verifier(), entry=w.entry,
            budget_factor=w.budget_factor,
        )
        sites = campaign.sample_trials(120, seed=5)
        compiles, trips = [], []
        real_exec = compiler._exec
        monkeypatch.setattr(
            compiler, "_exec",
            lambda source, filename, name: compiles.append(filename)
            or real_exec(source, filename, name),
        )
        on_trip(monkeypatch, lambda interp, frame: trips.append(1))
        run_campaign(campaign, 120, seed=5, n_jobs=1)
        cm = campaign.interp.cm
        blocks = {
            (cm.record_for(s.instruction).cfi, cm.record_for(s.instruction).block_index)
            for s in sites
        }
        assert len(trips) == 120
        assert all(f.startswith("<block ") for f in compiles)
        assert len(compiles) <= len(blocks) < len(set(id(s.instruction) for s in sites))
