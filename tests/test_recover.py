"""Tests for the detect-and-recover runtime (repro.recover).

The contract under test: with recovery armed, a fired duplication check
rolls the run back to the most recent region snapshot and re-executes;
because the single transient fault does not replay, the re-execution
completes with outputs bit-identical to the fault-free baseline and the
trial classifies as CORRECTED.  When the escalation ladder refuses the
rollback (taint, pins, caps), the run degrades to the paper's fail-stop
DETECTED — never a harness crash.  Recovery is strictly opt-in: with
``recovery=None`` every byte of behavior matches the historical engine.
"""

import json

import pytest

from repro import compile_source
from repro.faults import Campaign, Outcome, OutcomeCounts, TrialPlan, parse_outcome
from repro.faults.parallel import _seal, record_from_entry, verify_checkpoint
from repro.interp import Interpreter
from repro.interp.errors import DetectedByDuplication
from repro.ir.instructions import CallInst
from repro.ir.types import I64, VOID
from repro.ir.values import Constant
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import (
    RecoveryPolicy,
    RecoveryState,
    RecoveryTelemetry,
    Snapshot,
    build_plan,
    compute_regions,
)
from tests.test_determinism import Combo, check
from tests.test_service import KERNEL


def protected_interpreter():
    module = compile_source(KERNEL, name="kernel")
    duplicate_instructions(module, FullDuplicationSelector().select(module))
    return Interpreter(module)


def make_campaign(recovery=None):
    return Campaign(protected_interpreter(), recovery=recovery)


def record_key(record):
    site = record.site
    rec = record.recovery
    return (
        site.instruction.opcode,
        site.occurrence,
        site.bit,
        record.outcome,
        record.status,
        record.cycles,
        rec.as_dict() if rec is not None else None,
    )


class TestRegionPlan:
    def test_duplication_pass_records_regions(self):
        module = compile_source(KERNEL, name="kernel")
        report = duplicate_instructions(
            module, FullDuplicationSelector().select(module)
        )
        assert report.regions
        assert module.recovery_regions == report.regions
        for fn_name, blocks in report.regions.items():
            fn = module.functions[fn_name]
            names = {b.name for b in fn.blocks}
            assert set(blocks) <= names
            assert fn.blocks[0].name in blocks  # entry is always a boundary

    def test_unprotected_module_has_no_regions(self):
        module = compile_source(KERNEL, name="kernel")
        assert compute_regions(module) == {}

    def test_build_plan_always_covers_run_entry(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        plan = build_plan(interp.cm, "main")
        cfi = interp.cm.get_function_index("main")
        assert 0 in plan[cfi]


class TestCorrectedRuns:
    def test_detected_faults_become_corrected(self):
        baseline = make_campaign()
        baseline_result = baseline.run(30, seed=3)
        detected = baseline_result.counts.counts[Outcome.DETECTED]
        assert detected > 0

        campaign = make_campaign(recovery=RecoveryPolicy())
        result = campaign.run(30, seed=3)
        corrected = result.counts.counts[Outcome.CORRECTED]
        assert corrected == detected
        assert result.counts.counts[Outcome.DETECTED] == 0
        for record in result.records_with_outcome(Outcome.CORRECTED):
            assert record.status == "ok"
            assert record.recovery is not None
            assert record.recovery.rollbacks > 0

    def test_corrected_outputs_bit_identical_to_golden(self):
        campaign = make_campaign(recovery=RecoveryPolicy())
        campaign.prepare()
        golden = dict(campaign.golden_capture)
        site = next(
            s
            for s in campaign.sample_trials(30, seed=3)
            if campaign.run_site(s).outcome is Outcome.CORRECTED
        )
        campaign.run_site(site)
        for name, expected in golden.items():
            assert campaign.interp.read_global(name) == expected

    def test_fault_free_run_unchanged_by_recovery(self):
        plain = protected_interpreter().run()
        interp = protected_interpreter()
        recovered = interp.run(recovery=RecoveryPolicy())
        assert recovered.status == "ok"
        assert recovered.cycles == plain.cycles
        assert recovered.recovery is not None
        assert recovered.recovery.rollbacks == 0
        assert recovered.recovery.snapshots > 0

    def test_snapshot_cost_charges_cycles(self):
        free = protected_interpreter().run(recovery=RecoveryPolicy())
        priced = protected_interpreter().run(
            recovery=RecoveryPolicy(snapshot_cost=5)
        )
        assert priced.recovery.snapshots == free.recovery.snapshots
        assert priced.cycles == free.cycles + 5 * free.recovery.snapshots


class TestDeterminism:
    def test_parallel_matches_serial_with_recovery(self, tmp_path):
        check(Combo(trials=24, seed=5, protect="full", recover=True, executor="pool"),
              tmp_path)

    def test_recovery_off_matches_historical_engine(self):
        a = make_campaign().run(24, seed=5)
        assert all(r.recovery is None for r in a.records)
        assert a.counts.counts[Outcome.CORRECTED] == 0
        assert "corrected" not in a.counts.as_dict()


class TestEscalation:
    def _module_with_failing_check(self):
        """A module whose inserted check compares 1 against 2: it fires on
        every execution, so no amount of rollback can satisfy it."""
        module = compile_source(KERNEL, name="kernel")
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        fn = module.functions["main"]
        check_fn = module.declare_function(
            "ipas.check.i64",
            return_type=VOID,
            param_types=[I64, I64],
            is_intrinsic=True,
        )
        check = CallInst(check_fn, [Constant(I64, 1), Constant(I64, 2)])
        entry = fn.blocks[0]
        entry.insert_before(entry.terminator, check)
        return module

    def test_retry_exhaustion_degrades_to_detected(self):
        interp = Interpreter(self._module_with_failing_check())
        result = interp.run(
            recovery=RecoveryPolicy(max_rollbacks=3, region_retries=9)
        )
        assert result.status == "detected"
        assert "recovery escalated: rollback-cap" in result.error
        assert result.recovery.rollbacks == 3
        assert result.recovery.escalations > 0
        assert result.recovery.escalation_reason == "rollback-cap"

    def test_region_retries_escalate_first(self):
        interp = Interpreter(self._module_with_failing_check())
        result = interp.run(recovery=RecoveryPolicy(max_rollbacks=9))
        assert result.status == "detected"
        assert result.recovery.rollbacks == 2  # default region_retries
        assert result.recovery.escalation_reason == "region-retries"

    def test_failing_check_without_recovery_fail_stops(self):
        interp = Interpreter(self._module_with_failing_check())
        result = interp.run()
        assert result.status == "detected"
        assert "recovery" not in result.error

    def test_escalated_trial_classifies_detected_not_crash(self):
        campaign = Campaign(
            Interpreter(self._module_with_failing_check()),
            recovery=RecoveryPolicy(max_rollbacks=2),
        )
        with pytest.raises(RuntimeError, match="golden run failed"):
            campaign.prepare()  # even the golden run detects; no crash


class TestEscalationLadder:
    def _state(self, **kwargs):
        return RecoveryState(RecoveryPolicy(**kwargs), {0: frozenset({0})})

    def _snap(self, cycles=100):
        return Snapshot(0, 0, [], 0, cycles, [], 0, 0, False)

    def test_tainted_snapshot_refused(self):
        state = self._state()
        snap = Snapshot(0, 0, [], 0, 100, [], 0, 0, True)
        assert state.on_detection(snap, 200) == "tainted"
        assert state.telemetry.rollbacks == 0

    def test_pinned_snapshot_refused(self):
        state = self._state()
        snap = self._snap()
        state.stack.append(snap)
        state.pin()
        assert state.on_detection(snap, 200) == "pinned"

    def test_rollback_cap(self):
        state = self._state(max_rollbacks=1, region_retries=9)
        assert state.on_detection(self._snap(), 150) is None
        assert state.on_detection(self._snap(), 250) == "rollback-cap"

    def test_cycle_budget(self):
        state = self._state(rollback_cycle_budget=120, region_retries=9)
        assert state.on_detection(self._snap(100), 150) is None  # 50 spent
        assert state.on_detection(self._snap(100), 200) == "cycle-budget"

    def test_region_retries(self):
        state = self._state(region_retries=2)
        assert state.on_detection(self._snap(), 150) is None
        assert state.on_detection(self._snap(), 150) is None
        assert state.on_detection(self._snap(), 150) == "region-retries"
        assert state.telemetry.escalation_reason == "region-retries"

    def test_telemetry_accounting(self):
        state = self._state(region_retries=9, max_rollbacks=9)
        state.on_detection(self._snap(100), 160)
        state.on_detection(self._snap(100), 125)
        t = state.telemetry
        assert t.rollbacks == 2
        assert t.reexec_cycles == 85
        assert t.max_rollback_cycles == 60
        assert t.mean_rollback_cycles == 42.5


class TestDetectionContext:
    def test_check_failed_carries_site_details(self):
        interp = protected_interpreter()
        assert interp.cm.check_sites
        fn_name, block_name, check_name, value_name = interp.cm.check_sites[0]
        with pytest.raises(DetectedByDuplication) as exc_info:
            interp.check_failed(0)
        error = exc_info.value
        assert error.function == fn_name
        assert error.block == block_name
        assert error.check_name == check_name
        assert error.instruction == value_name
        assert fn_name in str(error)

    def test_detected_run_reports_context(self):
        campaign = make_campaign()
        campaign.prepare()
        site = next(
            s
            for s in campaign.sample_trials(30, seed=3)
            if campaign.run_site(s).outcome is Outcome.DETECTED
        )
        result = campaign.interp.run(
            injection=campaign.fault_model.injection_for(site),
            cycle_budget=campaign.cycle_budget,
        )
        assert result.status == "detected"
        assert "ipas.check" in result.error

    def test_exception_defaults(self):
        error = DetectedByDuplication("boom")
        assert error.function == ""
        assert error.check_name == ""


class TestSerialization:
    def test_outcome_counts_round_trip(self):
        counts = OutcomeCounts()
        for outcome in (Outcome.CRASH, Outcome.CORRECTED, Outcome.SOC):
            counts.record(outcome)
        restored = OutcomeCounts.from_counts_dict(counts.as_counts_dict())
        assert restored.counts == counts.counts

    def test_zero_corrected_elided(self):
        counts = OutcomeCounts()
        counts.record(Outcome.MASKED)
        data = counts.as_dict()
        assert "corrected" not in data and "trial_failure" not in data
        assert set(data) == {"crash", "hang", "detected", "masked", "soc"}

    def test_unknown_outcome_key_raises(self):
        with pytest.raises(ValueError, match="unknown outcome 'exotic'"):
            OutcomeCounts.from_counts_dict({"exotic": 1})

    def test_parse_outcome_names_context(self):
        with pytest.raises(ValueError, match="ckpt.jsonl:7"):
            parse_outcome("exotic", "checkpoint ckpt.jsonl:7")

    def test_trial_record_round_trips_recovery(self):
        campaign = make_campaign(recovery=RecoveryPolicy())
        campaign.prepare()
        plan = TrialPlan(campaign, 30, 3)
        i, record = next(
            (i, campaign.run_site(s))
            for i, s in enumerate(plan.sites)
            if campaign.run_site(s).outcome is Outcome.CORRECTED
        )
        entry = json.loads(json.dumps(plan.entry(i, record)))
        restored = record_from_entry(entry, plan.sites[i], "test")
        assert restored.outcome is Outcome.CORRECTED
        assert restored.recovery is not None
        assert restored.recovery.as_dict() == record.recovery.as_dict()

    def test_trial_record_unknown_outcome_raises(self):
        campaign = make_campaign()
        campaign.prepare()
        plan = TrialPlan(campaign, 1, 3)
        entry = plan.entry(0, campaign.run_site(plan.sites[0]))
        entry["outcome"] = "exotic"
        with pytest.raises(ValueError, match="unknown outcome 'exotic'"):
            record_from_entry(entry, plan.sites[0], "test")

    def test_telemetry_dict_round_trip(self):
        t = RecoveryTelemetry(3, 2, 500, 300, 1, "tainted")
        back = RecoveryTelemetry.from_dict(json.loads(json.dumps(t.as_dict())))
        assert [getattr(back, k) for k in t.__slots__] == [
            getattr(t, k) for k in t.__slots__
        ]


class TestCheckpointForwardCompat:
    def _write_checkpoint(self, tmp_path, recovery=None):
        path = str(tmp_path / "ckpt.jsonl")
        campaign = make_campaign(recovery=recovery)
        campaign.run(8, seed=5, checkpoint_path=path)
        return path

    def _corrupt_outcome(self, path, value="exotic"):
        lines = open(path).read().splitlines()
        entry = json.loads(lines[1])
        del entry["crc"]
        entry["outcome"] = value
        lines[1] = json.dumps(_seal(entry))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_unknown_outcome_line_named_in_error(self, tmp_path):
        path = self._write_checkpoint(tmp_path)
        self._corrupt_outcome(path)
        campaign = make_campaign()
        with pytest.raises(ValueError, match=r"ckpt\.jsonl:2"):
            campaign.run(8, seed=5, checkpoint_path=path)

    def test_verify_checkpoint_reports_unknown_outcomes(self, tmp_path):
        path = self._write_checkpoint(tmp_path)
        self._corrupt_outcome(path)
        report = verify_checkpoint(path, n_trials=8)
        assert report["unknown_outcomes"] == [{"line": 2, "outcome": "exotic"}]
        assert report["recoverable"] == 7

    def test_resume_restores_recovery_telemetry(self, tmp_path):
        path = self._write_checkpoint(tmp_path, recovery=RecoveryPolicy())
        campaign = make_campaign(recovery=RecoveryPolicy())
        result = campaign.run(8, seed=5, checkpoint_path=path)
        assert result.stats.resumed == 8
        reference = make_campaign(recovery=RecoveryPolicy()).run(8, seed=5)
        assert [record_key(r) for r in result.records] == [
            record_key(r) for r in reference.records
        ]

    def test_recovery_changes_fingerprint(self, tmp_path):
        path = self._write_checkpoint(tmp_path)  # written without recovery
        campaign = make_campaign(recovery=RecoveryPolicy())
        with pytest.warns(Warning, match="fingerprint mismatch"):
            result = campaign.run(8, seed=5, checkpoint_path=path)
        assert result.stats.resumed == 0
