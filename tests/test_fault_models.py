"""Tests for the pluggable fault-model registry.

The contracts under test, per model: spec grammar (eager, bad token
named), deterministic trial plans (jobs=1 == jobs=N == serial resume ==
warm, through ``tests/test_determinism.py``, which also holds
multi-shot recovery to fail-stop), the default model's byte-identity
with the historical engine, checkpoint model tagging (refusal on
mismatch, legacy files resume as transient-1bit), warm-start planning
against the first possible firing, sanitizer scoping, heatmap tagging,
and the cross-model experiments driver.
"""

import json
import warnings

import pytest

from repro.faults import (
    Campaign,
    CheckpointMismatchError,
    FaultSite,
    Outcome,
    campaign_fingerprint,
    result_bits,
)
from repro.faults.models import (
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    FaultModel,
    Intermittent,
    Persistent,
    Transient1Bit,
    get_fault_model,
    make_corrupter,
    parse_fault_model_spec,
    validate_fault_model_spec,
)
from repro.faults.parallel import run_campaign
from repro.ir import (
    ArrayType,
    F64,
    I64,
    IRBuilder,
    Module,
    const_float,
    const_int,
    verify_module,
)
from repro.workloads import get_workload
from tests.test_determinism import Combo, check

MODEL_SPECS = (
    "transient-1bit",
    "transient-multibit:k=3",
    "transient-multibit:k=2,adjacent=0",
    "pattern:kind=stuck1",
    "pattern:kind=zero",
    "intermittent:p=0.7,window=6",
    "persistent",
)


def make_campaign(model=None, workload="fft", module=None, **kwargs):
    w = get_workload(workload)
    return Campaign(
        w.make_interpreter(1, module=module),
        verifier=w.verifier(),
        entry=w.entry,
        budget_factor=w.budget_factor,
        fault_model=model,
        **kwargs,
    )


def record_key(record):
    return (
        record.site.instruction.opcode,
        record.site.occurrence,
        record.site.bit,
        record.outcome,
        record.status,
        record.cycles,
    )


def run_keys(model, trials=20, seed=3, n_jobs=1, **kwargs):
    campaign = make_campaign(model, **kwargs)
    result = run_campaign(campaign, trials, seed=seed, n_jobs=n_jobs)
    return [record_key(r) for r in result.records], campaign, result


# -- result_bits (satellite: clear error on unexpected types) ------------------


class TestResultBits:
    def _insts(self):
        m = Module("t")
        g = m.add_global("data", ArrayType(F64, 4))
        fn = m.add_function("main", F64, [])
        b = IRBuilder(fn.add_block("entry"))
        add = b.add(const_int(1), const_int(2))
        fadd = b.fadd(const_float(1.0), const_float(2.0))
        gep = b.gep(g, add)
        cmp = b.icmp("eq", add, add)
        b.ret(fadd)
        verify_module(m)
        return add, fadd, gep, cmp

    def test_widths(self):
        add, fadd, gep, cmp = self._insts()
        assert result_bits(add) == 64          # i64
        assert result_bits(fadd) == 64         # f64 IEEE image
        assert result_bits(gep) == 64          # pointers are 64-bit
        assert result_bits(cmp) == 1           # i1

    def test_unexpected_type_raises_clear_typeerror(self):
        add, _fadd, _gep, _cmp = self._insts()

        class WeirdType:
            def is_pointer(self):
                return False

            def is_float(self):
                return False

            def is_integer(self):
                return False

        original = add.type
        try:
            add.type = WeirdType()
            with pytest.raises(TypeError, match="no register representation"):
                result_bits(add)
        finally:
            add.type = original

    def test_sized_but_zero_bits_raises(self):
        add, _fadd, _gep, _cmp = self._insts()

        class ZeroBitInt:
            bits = 0

            def is_pointer(self):
                return False

            def is_float(self):
                return False

            def is_integer(self):
                return True

        original = add.type
        try:
            add.type = ZeroBitInt()
            with pytest.raises(TypeError, match="no register representation"):
                result_bits(add)
        finally:
            add.type = original


# -- spec grammar --------------------------------------------------------------


class TestSpecGrammar:
    def test_registry_contents(self):
        assert list(FAULT_MODELS) == [
            "transient-1bit", "transient-multibit", "pattern",
            "intermittent", "persistent",
        ]
        assert DEFAULT_FAULT_MODEL == "transient-1bit"

    def test_round_trip_specs(self):
        for spec in MODEL_SPECS:
            model = parse_fault_model_spec(spec)
            assert isinstance(model, FaultModel)
            # the canonical spec re-parses to an identical signature
            again = parse_fault_model_spec(model.spec())
            assert again.signature() == model.signature()

    def test_validate_returns_spec_unchanged(self):
        assert validate_fault_model_spec("pattern:kind=max") == "pattern:kind=max"

    def test_unknown_model_names_token(self):
        with pytest.raises(ValueError, match="unknown fault model 'chaos'"):
            validate_fault_model_spec("chaos")

    def test_unknown_parameter_names_token(self):
        with pytest.raises(ValueError, match="bad fault-model parameter 'boom=1'"):
            validate_fault_model_spec("persistent:boom=1")

    def test_unparseable_value_names_token(self):
        with pytest.raises(ValueError, match="bad fault-model parameter 'k=lots'"):
            validate_fault_model_spec("transient-multibit:k=lots")

    def test_range_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            parse_fault_model_spec("transient-multibit:k=0")
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\]"):
            parse_fault_model_spec("intermittent:p=1.5")
        with pytest.raises(ValueError, match="window must be >= 1"):
            parse_fault_model_spec("intermittent:window=0")
        with pytest.raises(ValueError, match="unknown kind"):
            parse_fault_model_spec("pattern:kind=sparkle")

    def test_get_fault_model_dispatch(self):
        assert isinstance(get_fault_model(None), Transient1Bit)
        assert isinstance(get_fault_model("persistent"), Persistent)
        model = Intermittent(p=0.25)
        assert get_fault_model(model) is model
        with pytest.raises(TypeError, match="fault_model must be"):
            get_fault_model(42)

    def test_signatures_distinguish_parameters(self):
        a = parse_fault_model_spec("transient-multibit:k=2")
        b = parse_fault_model_spec("transient-multibit:k=3")
        assert a.signature() != b.signature()
        assert Transient1Bit().signature() == ""  # legacy fingerprints


# -- corruption application ----------------------------------------------------


class TestCorrupters:
    def _float_inst(self):
        m = Module("t")
        fn = m.add_function("main", F64, [])
        b = IRBuilder(fn.add_block("entry"))
        fadd = b.fadd(const_float(1.0), const_float(2.0))
        b.ret(fadd)
        return fadd

    def _int_insts(self):
        m = Module("t")
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        add = b.add(const_int(1), const_int(2))
        cmp = b.icmp("eq", add, add)
        b.ret(add)
        return add, cmp

    def test_float_xor_is_bit_flip(self):
        import struct

        fadd = self._float_inst()
        corrupt = make_corrupter(fadd, lambda u, w: u ^ (1 << 52))
        image = struct.unpack("<Q", struct.pack("<d", 1.5))[0]
        expected = struct.unpack("<d", struct.pack("<Q", image ^ (1 << 52)))[0]
        assert corrupt(1.5) == expected

    def test_int_wraps_twos_complement(self):
        add, _ = self._int_insts()
        corrupt = make_corrupter(add, lambda u, w: u ^ (1 << 63))
        assert corrupt(0) == -(1 << 63)
        assert corrupt(-(1 << 63)) == 0

    def test_bool_stays_bool(self):
        _, cmp = self._int_insts()
        corrupt = make_corrupter(cmp, lambda u, w: u ^ 1)
        assert corrupt(True) is False
        assert corrupt(False) is True

    def test_zero_overwrite(self):
        fadd = self._float_inst()
        corrupt = make_corrupter(fadd, lambda u, w: 0)
        assert corrupt(123.456) == 0.0


# -- determinism: jobs=1 == jobs=N == resume -----------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_jobs1_equals_jobs2(self, spec, tmp_path):
        check(Combo("fft", 20, 3, model=spec, executor="pool"), tmp_path)

    @pytest.mark.parametrize(
        "spec", ["transient-multibit:k=3", "intermittent:p=0.7,window=6", "persistent"]
    )
    def test_serial_resume_identity(self, spec, tmp_path):
        check(Combo("fft", 16, 3, model=spec, resume_at=6), tmp_path)

    def test_default_model_matches_explicit(self):
        default, c_default, _ = run_keys(None)
        explicit, c_explicit, _ = run_keys("transient-1bit")
        assert default == explicit
        assert (
            campaign_fingerprint(c_default, 20, 3)
            == campaign_fingerprint(c_explicit, 20, 3)
        )

    def test_nondefault_models_change_fingerprint(self):
        _, base, _ = run_keys(None, trials=4)
        seen = {campaign_fingerprint(base, 4, 3)}
        for spec in ("transient-multibit:k=3", "pattern:kind=zero", "persistent"):
            _, campaign, _ = run_keys(spec, trials=4)
            fp = campaign_fingerprint(campaign, 4, 3)
            assert fp not in seen, f"{spec} collided"
            seen.add(fp)

    def test_plans_regenerate_identically(self):
        for spec in ("transient-multibit:k=2,adjacent=0", "intermittent:p=0.5"):
            a = make_campaign(spec)
            b = make_campaign(spec)
            plan_a = a.sample_trials(12, seed=9)
            plan_b = b.sample_trials(12, seed=9)
            for sa, sb in zip(plan_a, plan_b):
                assert sa.instruction.opcode == sb.instruction.opcode
                assert (sa.occurrence, sa.bit) == (sb.occurrence, sb.bit)
                assert getattr(sa, "detail", None) == getattr(sb, "detail", None)


# -- checkpoint model tagging --------------------------------------------------


class TestCheckpointModelTag:
    def _checkpointed_run(self, spec, path, trials=10):
        campaign = make_campaign(spec)
        return run_campaign(
            campaign, trials, seed=3, n_jobs=1, checkpoint_path=str(path)
        )

    def test_header_carries_model(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self._checkpointed_run("persistent", path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["model"] == "persistent"

    def test_default_model_header_tag(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self._checkpointed_run(None, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["model"] == "transient-1bit"

    def test_resume_under_different_model_refuses(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self._checkpointed_run(None, path)  # transient-1bit checkpoint
        with pytest.raises(CheckpointMismatchError, match="fault-model mismatch"):
            self._checkpointed_run("persistent", path)

    def test_refusal_names_both_models(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self._checkpointed_run("pattern:kind=zero", path)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            self._checkpointed_run("intermittent:p=0.5,window=8", path)
        message = str(excinfo.value)
        assert "pattern:kind=zero" in message
        assert "intermittent" in message
        assert "fresh checkpoint path" in message

    def test_legacy_untagged_checkpoint_resumes_as_transient_1bit(self, tmp_path):
        from repro.faults.parallel import sealed_line

        path = tmp_path / "ckpt.jsonl"
        full = self._checkpointed_run(None, path, trials=12)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["model"]
        del header["crc"]
        # a legacy file: valid CRC, no model key, some trials missing
        path.write_text("\n".join([sealed_line(header)] + lines[1:8]) + "\n")
        resumed = self._checkpointed_run(None, path, trials=12)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in full.records
        ]
        assert resumed.stats.resumed >= 1

    def test_legacy_untagged_checkpoint_refused_by_other_model(self, tmp_path):
        from repro.faults.parallel import sealed_line

        path = tmp_path / "ckpt.jsonl"
        self._checkpointed_run(None, path)
        lines = path.read_text().splitlines()
        header = {
            k: v
            for k, v in json.loads(lines[0]).items()
            if k not in ("crc", "model")
        }
        path.write_text("\n".join([sealed_line(header)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="transient-1bit"):
            self._checkpointed_run("persistent", path)


# -- multi-shot semantics ------------------------------------------------------


class TestMultiShot:
    def test_multi_shot_flags(self):
        assert not Transient1Bit.multi_shot
        assert not FAULT_MODELS["transient-multibit"].multi_shot
        assert not FAULT_MODELS["pattern"].multi_shot
        assert Intermittent.multi_shot
        assert Persistent.multi_shot

    @pytest.mark.parametrize(
        "spec", ["persistent", "intermittent:p=0.8,window=6", "transient-multibit:k=3"]
    )
    def test_warm_start_matches_cold(self, spec, tmp_path):
        check(Combo("fft", 16, 3, model=spec, warm=True), tmp_path)

    def test_persistent_first_occurrence_pins_to_one(self):
        campaign = make_campaign("persistent")
        plan = campaign.sample_trials(8, seed=1)
        model = campaign.fault_model
        for site in plan:
            assert site.occurrence == 1
            assert model.first_occurrence(site) == 1

    def test_intermittent_fire_is_pure_and_windowed(self):
        campaign = make_campaign("intermittent:p=0.5,window=8")
        site = campaign.sample_trials(1, seed=2)[0]
        spec = campaign.fault_model.injection_for(site)
        fired = [k for k in range(1, site.occurrence + 50) if spec.fire(k)]
        assert fired == [k for k in range(1, site.occurrence + 50) if spec.fire(k)]
        for k in fired:
            assert site.occurrence <= k < site.occurrence + 8
        assert all(not spec.fire(k) for k in range(1, site.occurrence))


# -- sanitizer scoping ---------------------------------------------------------


class TestSanitizerScoping:
    def test_covered_flag(self):
        assert Transient1Bit.sanitizer_covered
        for name in ("transient-multibit", "pattern", "intermittent", "persistent"):
            assert not FAULT_MODELS[name].sanitizer_covered

    def test_uncovered_model_skips_sweep(self):
        from repro.analysis.coverage import Verdict
        from repro.faults.sanitizer import sanitize_records

        class FakeSite:
            def __init__(self, inst):
                self.instruction = inst
                self.occurrence = 1
                self.bit = 0

        class FakeRecord:
            def __init__(self, inst):
                self.outcome = Outcome.SOC
                self.site = FakeSite(inst)

        w = get_workload("is")
        from repro.protect import FullDuplicationSelector, duplicate_instructions

        module = w.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        from repro.analysis.coverage import CoverageAnalysis

        analysis = CoverageAnalysis(module)
        covered = next(
            s.instruction
            for s in analysis.analyze_module().sites
            if s.verdict is not Verdict.ESCAPES
        )
        records = [FakeRecord(covered)]
        # transient-1bit: an SOC at a covered site is a violation
        with pytest.raises(AssertionError):
            sanitize_records(records, module, model=Transient1Bit())
        # persistent: out of the proof's scope, no sweep
        sanitize_records(records, module, model=Persistent())


# -- particles workload --------------------------------------------------------


class TestParticlesWorkload:
    def test_registered(self):
        from repro.workloads.registry import WORKLOAD_CLASSES

        assert "particles" in WORKLOAD_CLASSES

    def test_golden_run_and_verifier(self):
        w = get_workload("particles")
        interp = w.make_interpreter(1)
        result = interp.run("main")
        assert result.status == "ok"
        energy = interp.read_global("out_energy")[0]
        assert energy == energy and energy < 0.0  # bound disk, finite energy
        verifier = w.verifier()
        golden = verifier.capture(interp)
        assert verifier.check(interp, golden)

    def test_long_horizon_input_ladder(self):
        w = get_workload("particles")
        assert w.inputs[4]["param_steps"] >= 1000  # thousands of steps
        assert set(w.inputs) == {1, 2, 3, 4}

    def test_spmd_matches_serial(self):
        w = get_workload("particles")
        interp = w.make_interpreter(1)
        interp.run("main")
        job = w.make_job(2, 1)
        job_result = job.run("main")
        assert job_result.status == "ok"
        for name in ("out_x", "out_y", "out_energy"):
            assert job.interpreters[0].read_global(name) == interp.read_global(name)

    def test_campaign_under_persistent_model(self):
        keys, _, result = run_keys(
            "persistent", trials=10, workload="particles"
        )
        assert len(keys) == 10
        assert result.counts.total == 10


# -- heatmap tagging -----------------------------------------------------------


class TestHeatmapModelTag:
    def test_model_tag_and_per_model_totals(self):
        from repro.obs import build_heatmap

        campaign = make_campaign("persistent")
        result = run_campaign(campaign, 12, seed=3, n_jobs=1)
        heatmap = build_heatmap(
            result.records, campaign.interp.module, model=campaign.fault_model
        )
        assert heatmap["fault_model"] == "persistent"
        assert heatmap["model_outcomes"] == {
            "persistent": heatmap["outcome_totals"]
        }

    def test_default_tag(self):
        from repro.obs import build_heatmap

        campaign = make_campaign(None)
        result = run_campaign(campaign, 8, seed=3, n_jobs=1)
        heatmap = build_heatmap(result.records, campaign.interp.module)
        assert heatmap["fault_model"] == "transient-1bit"


# -- experiments driver --------------------------------------------------------


class TestFaultModelEvaluation:
    def test_sweep_and_table(self):
        from repro.experiments import (
            format_fault_model_table,
            run_fault_model_evaluation,
        )

        result = run_fault_model_evaluation(
            "is", model_specs=["transient-1bit", "persistent"], trials=15, seed=1
        )
        assert [e["spec"] for e in result["models"]] == [
            "transient-1bit", "persistent",
        ]
        for entry in result["models"]:
            assert "unprotected" in entry and "protected" in entry
            assert "sites_gained" in entry and "sites_lost" in entry
        baseline = result["models"][0]
        assert baseline["sites_gained"] == [] and baseline["sites_lost"] == []
        table = format_fault_model_table(result)
        assert "transient-1bit" in table
        assert "persistent" in table
        assert "soc sites" in table


# -- MPI campaign guard --------------------------------------------------------


class TestMpiCampaignGuard:
    def test_default_model_accepted(self):
        from repro.faults import MpiCampaign

        w = get_workload("is")
        campaign = MpiCampaign(w.make_job(2, 1))
        assert campaign.fault_model.name == "transient-1bit"
