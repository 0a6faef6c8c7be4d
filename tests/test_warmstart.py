"""Property suite for warm-start (snapshot-ladder) campaign execution.

The contract: a warm-start campaign — every trial restored from the
golden-run ladder rung just before its injection point and executed only
for its suffix — produces outcome records *bit-identical* to the
cold-start campaign, for every registered workload, any snapshot stride,
and any worker count.  ``tests/test_determinism.py`` holds warm start to
that contract in combination with every other knob; the named
combinations below are its calls, beside the ladder, resync and
checkpoint-isolation mechanics.
"""

import marshal

import pytest

from repro import compile_source
from repro.faults import (
    Campaign,
    CampaignStats,
    CheckpointWarning,
    Outcome,
    SupervisorPolicy,
    TrialPlan,
    TrialRecord,
    campaign_fingerprint,
    fork_available,
)
from repro.faults.chaos import ChaosMonkey
from repro.faults.outcomes import OutcomeCounts
from repro.interp import Interpreter
from repro.recover import (
    SnapshotLadder,
    WarmSnapshot,
    WarmStart,
    exact_state_eq,
)
from repro.recover.warm import _TrackState
from repro.workloads import WORKLOAD_NAMES, get_workload
from tests.test_determinism import Combo, build, check, reference, run_in_process

KERNEL = """
int n = 14;
output double result[4];

double work(double a[], int n) {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    return sqrt(s);
}

void main() {
    double x[16];
    for (int i = 0; i < n; i = i + 1) { x[i] = (double)(i + 1); }
    result[0] = work(x, n);
    result[1] = (double)n;
}
"""

N_TRIALS = 24
SEED = 11

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="supervised pool needs the fork start method"
)


def make_campaign(**kwargs):
    return Campaign(Interpreter(compile_source(KERNEL, name="kernel")), **kwargs)


def make_workload_campaign(name, **kwargs):
    workload = get_workload(name)
    return Campaign(
        workload.make_interpreter(1),
        verifier=workload.verifier(),
        entry=workload.entry,
        budget_factor=workload.budget_factor,
        **kwargs,
    )


def run_entries(campaign, n_trials=N_TRIALS, seed=SEED, **run_kwargs):
    """(every record of a campaign run as its whole ``trial_entry``, the
    result): the site index, failure and recovery telemetry included."""
    result = campaign.run(n_trials, seed=seed, **run_kwargs)
    plan = TrialPlan(campaign, n_trials, seed)
    return [plan.entry(i, r) for i, r in enumerate(result.records)], result


def entries(campaign, n_trials=N_TRIALS, seed=SEED, **run_kwargs):
    """The records of a campaign run as whole ``trial_entry`` dicts."""
    return run_entries(campaign, n_trials, seed, **run_kwargs)[0]


class TestLadderStructure:
    def test_rungs_cover_the_run(self):
        campaign = make_campaign(warm_start=True, snapshot_stride=5)
        ladder = campaign.ensure_ladder()
        assert isinstance(ladder, SnapshotLadder)
        assert ladder.stride == 5
        assert ladder.golden_cycles == campaign.golden_cycles
        assert ladder.snapshots, "a multi-hundred-cycle run must capture rungs"
        cycles = [s.cycles for s in ladder.snapshots]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)
        for i, snap in enumerate(ladder.snapshots):
            assert isinstance(snap, WarmSnapshot)
            assert snap.index == i
            assert snap.frames  # at least the entry frame is live
            assert len(snap.cells) == len(campaign.interp.cells)

    def test_ladder_is_captured_once(self):
        campaign = make_campaign(warm_start=True)
        assert campaign.ensure_ladder() is campaign.ensure_ladder()

    def test_auto_stride_targets_default_rung_count(self):
        campaign = make_campaign(warm_start=True)
        expected = max(campaign.golden_cycles // Campaign.DEFAULT_LADDER_RUNGS, 1)
        assert campaign.effective_stride == expected

    def test_signature_names_the_stride(self):
        campaign = make_campaign(warm_start=True, snapshot_stride=7)
        assert campaign.ensure_ladder().signature() == "warm1|7"

    def test_stride_must_be_positive(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        with pytest.raises(ValueError):
            interp.capture_ladder(stride=0)


class TestBitIdentity:
    def test_warm_equals_cold(self, tmp_path):
        check(Combo(warm=True), tmp_path)

    def test_warm_equals_cold_at_tiny_stride(self, tmp_path):
        check(Combo(warm=True, knob=("snapshot_stride", 1)), tmp_path)

    def test_warm_equals_cold_at_huge_stride(self, tmp_path):
        # A stride past golden_cycles leaves no rung; every trial runs
        # cold, so the run restores none and must still match exactly.
        combo = Combo(warm=True, knob=("snapshot_stride", 10**9))
        got = run_in_process(combo, tmp_path)
        assert got.entries == reference(combo)[0]
        assert got.metrics.value("ipas_warm_restores_total") == 0

    @needs_fork
    def test_warm_parallel_equals_cold_serial(self, tmp_path):
        check(Combo(warm=True, executor="pool"), tmp_path)

    def test_warm_stats_are_reported(self):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED)
        stats = result.stats
        assert stats.warm_restores > 0
        assert stats.warm_cycles_saved > 0
        registry = stats.registry
        assert registry.value("ipas_warm_restores_total") == stats.warm_restores
        assert registry.value("ipas_warm_resyncs_total") == stats.golden_resyncs
        assert registry.value("ipas_warm_cycles_saved_total") == stats.warm_cycles_saved
        assert "[warm" in stats.progress_line()


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
class TestAllWorkloads:
    """Warm==cold on every registered workload, injected faults included."""

    def test_warm_equals_cold(self, name, tmp_path):
        check(Combo(name, 20, 0, warm=True), tmp_path)


@pytest.mark.parametrize("name", ["fft", "hpccg"])
def test_warm_equals_cold_with_resyncs(name, tmp_path):
    """Warm trials run lean region code between resync events, leaving
    it through deopt exits: records stay those of the cold campaign, and
    trials still finish by golden resync, in-process and on the pool."""
    for executor in ("serial", "pool") if fork_available() else ("serial",):
        runs = [check(Combo(name, 40, seed, warm=True, executor=executor),
                      tmp_path / f"{executor}{seed}") for seed in (0, 1, 2)]
        resyncs = sum(run.metrics.value("ipas_warm_resyncs_total") for run in runs)
        assert resyncs > 0, executor


@pytest.mark.parametrize("name, trials", [("fft", 200), ("hpccg", 100)])
def test_warm_equals_cold_with_resyncs_when_fully_duplicated(name, trials, tmp_path):
    """Resync-armed warm trials without recovery keep the cold
    campaign's records on a fully duplicated module too, and still
    resync, in-process and on the pool.  Its ladder has rungs at the
    stride only, as a plain module's: each at least ``stride`` cycles
    past the one before."""
    runs = [("serial", seed) for seed in (0, 1, 2)]
    runs += [("pool", 0)] if fork_available() else []
    for executor, seed in runs:
        run = check(Combo(name, trials, seed, protect="full", warm=True, executor=executor),
                    tmp_path / f"{executor}{seed}")
        assert run.metrics.value("ipas_warm_resyncs_total") > 0, (executor, seed)
    ladder = build(Combo(name, protect="full", warm=True)).ensure_ladder()
    cycles = [0] + [snap.cycles for snap in ladder.snapshots]
    assert all(b - a >= ladder.stride for a, b in zip(cycles, cycles[1:]))
    assert len(ladder.snapshots) <= ladder.golden_cycles // ladder.stride


@needs_fork
class TestHarnessPaths:
    def test_poisoned_trial_quarantined_warm(self, tmp_path):
        chaos = ChaosMonkey(kill_at=[9], once=False, state_dir=str(tmp_path / "c"))
        got, result = run_entries(
            make_campaign(warm_start=True), n_jobs=2,
            supervision=SupervisorPolicy(max_retries=1), chaos=chaos,
        )
        assert result.records[9].outcome is Outcome.TRIAL_FAILURE
        assert result.counts.counts[Outcome.TRIAL_FAILURE] == 1
        assert "failure" in got[9]
        cold = entries(make_campaign())
        assert got[:9] + got[10:] == cold[:9] + cold[10:]

    def test_killed_worker_bit_identical_warm(self, tmp_path):
        check(Combo(warm=True, executor="pool", chaos=True), tmp_path)


class TestCheckpointIsolation:
    """Warm and cold checkpoints must never mix: the fingerprint differs."""

    def test_fingerprint_differs_and_encodes_stride(self):
        cold = campaign_fingerprint(make_campaign(), N_TRIALS, SEED)
        warm = campaign_fingerprint(make_campaign(warm_start=True), N_TRIALS, SEED)
        warm5 = campaign_fingerprint(
            make_campaign(warm_start=True, snapshot_stride=5), N_TRIALS, SEED
        )
        assert cold != warm
        assert warm != warm5

    def test_warm_resumes_its_own_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = entries(make_campaign(warm_start=True), checkpoint_path=path)
        got, resumed = run_entries(make_campaign(warm_start=True), checkpoint_path=path)
        assert resumed.stats.resumed == N_TRIALS
        assert got == first

    def test_cold_checkpoint_discarded_by_warm_campaign(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        with pytest.warns(CheckpointWarning, match="fingerprint"):
            got, resumed = run_entries(
                make_campaign(warm_start=True), checkpoint_path=path
            )
        assert resumed.stats.resumed == 0
        assert got == entries(make_campaign())


class TestResetImage:
    """The precomputed reset image (satellite perf fix) must track overrides."""

    def test_override_lands_in_reset_image(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        base = interp.run().cycles
        interp.set_global_override("n", 6)
        shorter = interp.run()
        assert shorter.status == "ok"
        assert shorter.cycles < base
        assert interp.read_global("n") == 6
        # Override persists across resets via the cached image.
        assert interp.run().cycles == shorter.cycles

    def test_clearing_overrides_invalidates_the_image(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        base = interp.run().cycles
        interp.set_global_override("n", 6)
        interp.run()
        interp.clear_global_overrides()
        assert interp.run().cycles == base


class TestSlots:
    def test_per_trial_hot_objects_are_slotted(self):
        for cls in (CampaignStats, OutcomeCounts, TrialRecord, WarmSnapshot, WarmStart):
            assert "__dict__" not in cls.__dict__, f"{cls.__name__} grew a __dict__"
        stats = CampaignStats(1, 1)
        counts = OutcomeCounts()
        with pytest.raises(AttributeError):
            stats.not_a_field = 1
        with pytest.raises(AttributeError):
            counts.not_a_field = 1


class TestExactStateEq:
    """The resync compare: ``==`` first, then the ``marshal`` image."""

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, -0.0), (1, 1.0), (1, True), (0, False), (2**70, float(2**70))],
    )
    def test_rejects_equal_values_of_another_type_or_sign(self, a, b):
        assert [a] == [b]
        assert not exact_state_eq([7, a, 2.5], [7, b, 2.5])
        assert not exact_state_eq([b, 7], [a, 7])
        assert exact_state_eq([7, a, 2.5], [7, a, 2.5])

    def test_nan_passes_only_as_the_same_object(self):
        nan = float("nan")
        assert not exact_state_eq([1.0, float("nan")], [1.0, float("nan")])
        assert exact_state_eq([1.0, nan], [1.0, nan])

    def test_values_marshal_refuses_take_the_loop(self):
        box = object()
        with pytest.raises(ValueError):
            marshal.dumps([box], 2)
        assert exact_state_eq([box, 1, 0.0], [box, 1, 0.0])
        assert not exact_state_eq([box, 1], [box, 1.0])
        assert not exact_state_eq([box, 1], [box, True])
        assert not exact_state_eq([box, 0.0], [box, -0.0])


class TestResyncMatch:
    """``_resync_match`` against a real fft rung covers the whole arena,
    and each frame on the slots block-by-block execution may still read."""

    @pytest.fixture(scope="class")
    def rung(self):
        campaign = make_workload_campaign("fft", warm_start=True)
        ladder = campaign.ensure_ladder()
        return campaign.interp, ladder.snapshots[len(ladder) // 2]

    @pytest.fixture(scope="class")
    def nested(self):
        """A real fft rung with a frame suspended in a call, each of its
        two innermost frames holding slots the resync compares and slots
        it does not: (interp, rung, {frame position: (live, dead)})."""
        campaign = make_workload_campaign("fft", warm_start=True)
        interp = campaign.interp
        for snap in campaign.ensure_ladder().snapshots:
            if len(snap.frames) < 2:
                continue
            split = {}
            for at in (-2, -1):
                wf = snap.frames[at]
                live = interp.cm.live_slots(wf.cfi, wf.bi, wf.call_k)
                dead = [k for k in range(len(wf.regs)) if k not in live]
                if live and dead:
                    split[at] = (live, dead)
            if len(split) == 2:
                return interp, snap, split
        pytest.fail("no fft rung suspends a frame with live and dead slots")

    @staticmethod
    def matches(interp, snap, cells, changed=None):
        """Whether a trial standing exactly at ``snap`` with ``cells``,
        and with the frame slots ``changed`` maps (frame position ->
        {slot: value}) holding other values, would resync there."""
        trk = _TrackState()
        trk.frames = [
            [wf.cfi, wf.bi, 0 if wf.call_k is None else wf.call_k + 1,
             list(wf.regs), wf.sp0, None]
            for wf in snap.frames
        ]
        for at, slots in (changed or {}).items():
            for k, value in slots.items():
                trk.frames[at][3][k] = value
        interp.cells = cells
        interp.sp = snap.sp
        interp.output_log = list(snap.out_log)
        return interp._resync_match(snap, trk)

    @staticmethod
    def copy_with(snap, cells):
        return WarmSnapshot(
            snap.index, snap.cycles, cells, snap.sp, snap.frames,
            snap.out_log, snap.profile,
        )

    def test_identical_state_matches(self, rung):
        interp, snap = rung
        assert self.matches(interp, snap, list(snap.cells))

    @staticmethod
    def other(value):
        """A value equal to nothing a frame holds."""
        return ("not", value)

    def test_a_dead_slot_of_the_innermost_frame_matches(self, nested):
        """A slot the innermost block assigns before any read differs:
        the rest of the run cannot tell, so the rung matches."""
        interp, snap, split = nested
        _, dead = split[-1]
        regs = snap.frames[-1].regs
        changed = {-1: {k: self.other(regs[k]) for k in dead}}
        assert self.matches(interp, snap, list(snap.cells), changed)

    def test_a_live_slot_of_the_innermost_frame_rejects(self, nested):
        interp, snap, split = nested
        live, _ = split[-1]
        regs = snap.frames[-1].regs
        for k in live:
            changed = {-1: {k: self.other(regs[k])}}
            assert not self.matches(interp, snap, list(snap.cells), changed), k

    def test_a_suspended_frame_compares_what_it_reads_after_its_call(self, nested):
        """In a frame suspended in a call, a slot read after the call
        rejects, and a slot assigned again before any read matches."""
        interp, snap, split = nested
        live, dead = split[-2]
        regs = snap.frames[-2].regs
        for k in live:
            changed = {-2: {k: self.other(regs[k])}}
            assert not self.matches(interp, snap, list(snap.cells), changed), k
        changed = {-2: {k: self.other(regs[k]) for k in dead}}
        assert self.matches(interp, snap, list(snap.cells), changed)

    def test_one_cell_of_another_type_rejects(self, rung):
        interp, snap = rung
        below = next(
            i for i, v in enumerate(snap.cells[: snap.sp]) if type(v) is int
        )
        value = snap.cells[below]
        others = [float(value)] + ([bool(value)] if value in (0, 1) else [])
        for other in others:
            cells = list(snap.cells)
            cells[below] = other
            assert cells == snap.cells
            assert not self.matches(interp, snap, cells), (below, other)

    def test_one_zero_of_the_other_sign_rejects(self, rung):
        interp, snap = rung
        below = next(
            i for i, v in enumerate(snap.cells[: snap.sp])
            if type(v) is float and v == 0.0
        )
        cells = list(snap.cells)
        cells[below] = -cells[below]
        assert cells == snap.cells
        assert not self.matches(interp, snap, cells)

    # Above sp.  fft never touches its stack, so the rung's physical list
    # ends at sp; past the end of either list the logical arena is int 0.
    # A longer list's tail is therefore compared against int zeros: an
    # equal-valued 0.0, -0.0 or False there is a different state.
    TAILS = (
        ([0, 0, 0], True),
        ([0, 0, 0.0], False),
        ([-0.0, 0, 0], False),
        ([0, False, 0], False),
        ([0, 0, 1], False),
    )

    def test_a_rung_of_fft_ends_at_sp(self, rung):
        interp, snap = rung
        assert len(snap.cells) == snap.sp == interp.cm.stack_base

    @pytest.mark.parametrize("tail,match", TAILS)
    def test_a_trial_list_longer_than_the_rung(self, rung, tail, match):
        interp, snap = rung
        cells = list(snap.cells) + tail
        assert self.matches(interp, snap, cells) is match

    @pytest.mark.parametrize("tail,match", TAILS)
    def test_a_rung_list_longer_than_the_trial(self, rung, tail, match):
        interp, snap = rung
        longer = self.copy_with(snap, list(snap.cells) + tail)
        assert self.matches(interp, longer, list(snap.cells)) is match

    @pytest.mark.parametrize("tail,match", TAILS)
    def test_lists_of_equal_length_above_sp(self, rung, tail, match):
        interp, snap = rung
        golden = self.copy_with(snap, list(snap.cells) + [0] * len(tail))
        assert self.matches(interp, golden, list(snap.cells) + tail) is match
