"""Property suite for warm-start (snapshot-ladder) campaign execution.

The tentpole contract: a warm-start campaign — every trial restored from
the golden-run ladder rung just before its injection point and executed
only for its suffix — produces outcome records *bit-identical* to the
historical cold-start campaign, for every registered workload, any
snapshot stride, and any worker count.  That includes the recovery
runtime's rollback telemetry and the harness paths (chaos kills,
quarantine, checkpoint resume).
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
    TrialRecord,
    campaign_fingerprint,
    fork_available,
)
from repro.faults.chaos import ChaosMonkey, parse_chaos_spec
from repro.faults.outcomes import OutcomeCounts
from repro.interp import Interpreter
from repro.recover import (
    RecoveryPolicy,
    SnapshotLadder,
    WarmSnapshot,
    WarmStart,
    exact_state_eq,
)
from repro.recover.warm import _TrackState
from repro.workloads import WORKLOAD_NAMES, get_workload

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


def record_key(record):
    """Everything observable about a trial, including recovery telemetry."""
    return (
        record.site.instruction.opcode,
        record.site.occurrence,
        record.site.bit,
        record.outcome,
        record.status,
        record.cycles,
        record.recovery.as_dict() if record.recovery is not None else None,
    )


def keys(result):
    return [record_key(r) for r in result.records]


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
    @pytest.fixture(scope="class")
    def cold_baseline(self):
        return keys(make_campaign().run(N_TRIALS, seed=SEED))

    def test_warm_equals_cold(self, cold_baseline):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED)
        assert keys(result) == cold_baseline
        assert result.stats.warm_restores > 0

    def test_warm_equals_cold_at_tiny_stride(self, cold_baseline):
        result = make_campaign(warm_start=True, snapshot_stride=1).run(
            N_TRIALS, seed=SEED
        )
        assert keys(result) == cold_baseline

    def test_warm_equals_cold_at_huge_stride(self, cold_baseline):
        # A stride past golden_cycles leaves at most the earliest rungs;
        # trials mostly run cold and must still match exactly.
        result = make_campaign(warm_start=True, snapshot_stride=10**9).run(
            N_TRIALS, seed=SEED
        )
        assert keys(result) == cold_baseline

    @needs_fork
    def test_warm_parallel_equals_cold_serial(self, cold_baseline):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED, n_jobs=2)
        assert keys(result) == cold_baseline
        assert result.stats.warm_restores > 0

    def test_warm_stats_are_reported(self):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED)
        stats = result.stats
        assert stats.warm_restores > 0
        assert stats.warm_cycles_saved > 0
        warm = stats.as_dict()["warm_start"]
        assert warm["restores"] == stats.warm_restores
        assert warm["golden_resyncs"] == stats.golden_resyncs
        assert warm["prefix_cycles_saved"] == stats.warm_cycles_saved
        assert "[warm" in stats.progress_line()


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
class TestAllWorkloads:
    """Warm==cold on every registered workload, injected faults included."""

    def test_warm_equals_cold(self, name):
        trials, seed = 20, 0
        cold = make_workload_campaign(name).run(trials, seed=seed)
        warm = make_workload_campaign(name, warm_start=True).run(trials, seed=seed)
        assert keys(warm) == keys(cold)
        assert warm.counts.as_dict() == cold.counts.as_dict()
        assert warm.stats.warm_restores > 0


@pytest.mark.parametrize("name", ["fft", "hpccg"])
def test_warm_equals_cold_with_resyncs(name):
    """Warm trials run tracked region code between resync events and
    finish on the lean table: records stay those of the cold campaign,
    and trials still finish by golden resync."""
    trials, resyncs = 40, 0
    for seed in (0, 1, 2):
        cold = make_workload_campaign(name).run(trials, seed=seed)
        warm = make_workload_campaign(name, warm_start=True).run(trials, seed=seed)
        assert keys(warm) == keys(cold)
        resyncs += warm.stats.golden_resyncs
    assert resyncs > 0


class TestRecoveryPath:
    """Warm-start under the rollback runtime: CORRECTED trials and their
    telemetry must replay bit-identically (resync is disabled there)."""

    @staticmethod
    def _campaign(warm_start=False):
        from repro.protect import FullDuplicationSelector, duplicate_instructions

        workload = get_workload("fft")
        module = workload.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        return Campaign(
            workload.make_interpreter(1, module=module),
            verifier=workload.verifier(),
            entry=workload.entry,
            budget_factor=workload.budget_factor,
            recovery=RecoveryPolicy(),
            warm_start=warm_start,
        )

    def test_warm_equals_cold_with_recovery(self):
        trials, seed = 40, 7
        cold = self._campaign().run(trials, seed=seed)
        warm = self._campaign(warm_start=True).run(trials, seed=seed)
        assert keys(warm) == keys(cold)
        assert cold.counts.counts[Outcome.CORRECTED] >= 1, (
            "seed must exercise the rollback path for this test to mean anything"
        )
        assert warm.stats.golden_resyncs == 0  # resync is off under recovery
        assert warm.stats.warm_restores > 0


@needs_fork
class TestHarnessPaths:
    def test_poisoned_trial_quarantined_warm(self, tmp_path):
        chaos = ChaosMonkey(kill_at=[9], once=False, state_dir=str(tmp_path / "c"))
        result = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, n_jobs=2,
            supervision=SupervisorPolicy(max_retries=1), chaos=chaos,
        )
        assert result.records[9].outcome is Outcome.TRIAL_FAILURE
        assert result.counts.counts[Outcome.TRIAL_FAILURE] == 1
        cold = make_campaign().run(N_TRIALS, seed=SEED)
        surviving = [k for i, k in enumerate(keys(result)) if i != 9]
        assert surviving == [k for i, k in enumerate(keys(cold)) if i != 9]

    def test_killed_worker_bit_identical_warm(self, tmp_path):
        chaos = parse_chaos_spec("kill@5", state_dir=str(tmp_path / "c"))
        result = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, n_jobs=2, chaos=chaos
        )
        assert keys(result) == keys(make_campaign().run(N_TRIALS, seed=SEED))
        assert result.stats.worker_deaths >= 1


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
        first = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, checkpoint_path=path
        )
        resumed = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, checkpoint_path=path
        )
        assert resumed.stats.resumed == N_TRIALS
        assert keys(resumed) == keys(first)

    def test_cold_checkpoint_discarded_by_warm_campaign(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        with pytest.warns(CheckpointWarning, match="fingerprint"):
            resumed = make_campaign(warm_start=True).run(
                N_TRIALS, seed=SEED, checkpoint_path=path
            )
        assert resumed.stats.resumed == 0
        assert keys(resumed) == keys(make_campaign().run(N_TRIALS, seed=SEED))


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
    """``_resync_match`` against a real fft rung covers the whole arena."""

    @pytest.fixture(scope="class")
    def rung(self):
        campaign = make_workload_campaign("fft", warm_start=True)
        ladder = campaign.ensure_ladder()
        return campaign.interp, ladder.snapshots[len(ladder) // 2]

    @staticmethod
    def matches(interp, snap, cells):
        """Whether a trial standing exactly at ``snap`` with ``cells``
        would resync there."""
        trk = _TrackState()
        trk.frames = [
            [wf.cfi, wf.bi, 0 if wf.call_k is None else wf.call_k + 1,
             list(wf.regs), wf.sp0, None]
            for wf in snap.frames
        ]
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
