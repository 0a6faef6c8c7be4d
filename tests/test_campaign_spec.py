"""CampaignSpec: one parse, validate, canonicalize and build path.

The pinned fingerprints below were computed by the code that predates
``CampaignSpec``: ``inject`` built its ``Campaign`` by hand and the
service through its own spec helpers.  Every campaign the spec builds
from the same argv or JSON must reproduce them exactly, or old
checkpoints and service journals would stop resuming.
"""

import io
import json
import math

import pytest

from repro.cli import _say_outcome_mix, build_parser
from repro.core import collect_data, evaluate_unprotected, evaluate_variant
from repro.faults import CampaignSpec, OutputVerifier, campaign_fingerprint
from repro.faults.models import validate_fault_model_spec
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import RecoveryPolicy
from repro.workloads import Workload, get_workload

KERNEL = """
int n = 12;
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

PROTECT_ARGV = {
    "none": ["--protect", "none"],
    "full": ["--protect", "full"],
    "recover": ["--protect", "full", "--recover", "--max-rollbacks", "3"],
}
WARM_ARGV = ([], ["--warm-start"], ["--warm-start", "--snapshot-stride", "5000"])

#: ``inject fft --trials 30 --seed 3 --fault-model MODEL`` + PROTECT_ARGV;
#: columns: cold, ``--warm-start``, ``--warm-start --snapshot-stride 5000``
PINNED_INJECT = {
    ("transient-1bit", "none"): ("de7eae71d4067542", "6e8fb55dafe09c39", "2f8fd2718b812f25"),
    ("transient-1bit", "full"): ("68f75f54d7f1b8bc", "ca996adee63c5c5b", "50ae470b9190a67a"),
    ("transient-1bit", "recover"): ("5bd113a4877e232b", "91ee3e2fb6379a54", "097660ed1372235c"),
    ("transient-multibit:k=2", "none"): ("d84452325e4e57f8", "9c817bf5ed983199", "018b3f36291e5ff8"),
    ("transient-multibit:k=2", "full"): ("be58a86f65eadb8c", "6d802f0ad4d76e51", "618a04acadf431b5"),
    ("transient-multibit:k=2", "recover"): ("53646e79fd0c2832", "857a2b661d7ac715", "b4dd80bc54ee0f29"),
    ("pattern:kind=stuck1", "none"): ("fabd9430fc33ba3a", "7e4cc08bdb5c2cfe", "44498d20bc02fb18"),
    ("pattern:kind=stuck1", "full"): ("67aac352f1c617a6", "514167745ffe0555", "82b460238576b537"),
    ("pattern:kind=stuck1", "recover"): ("2764e81c85186727", "e7c71f8dbe74ceb0", "e20876b86dcd60ab"),
    ("intermittent:p=0.5,window=4", "none"): ("ee10a432343adabf", "99c911114917da0d", "d9943c73b5027bac"),
    ("intermittent:p=0.5,window=4", "full"): ("f6f13228ebd19215", "53cf02c4d13cfd66", "eb9a2b1aeaf4d264"),
    ("intermittent:p=0.5,window=4", "recover"): ("f69421191671e720", "454f97776b51d752", "c5da4c56874d99ba"),
    ("persistent", "none"): ("97ee68dcf43562dd", "e7cf35b3e2fc558e", "fea9c6825448cea3"),
    ("persistent", "full"): ("f16d019f7e62900e", "490f30a7bc9ebca4", "04483cf7e0b16819"),
    ("persistent", "recover"): ("4a6e13c5f35f3030", "b9f11008c94b3153", "088bfed7da3fe53f"),
}

#: other ``inject is`` argv
PINNED_INJECT_IS = {
    "--input 2 --seed 0": "38d3481502e17bff",
    "--trials 7": "dd7fc3d676845f65",
    "--protect full --recover --snapshot-period 500": "5d2fb97c76039969",
}

#: service JSON, registry and source form
PINNED_JSON = [
    ({"workload": "fft", "trials": 40, "seed": 3}, "860f961521565be9"),
    ({"workload": "fft", "input": 2, "trials": 40, "seed": 3}, "39f81987cac94e48"),
    ({"workload": "hpccg", "input": 1, "trials": 25}, "d53dcf39b1fab5b4"),
    ({"workload": "fft", "trials": 40, "seed": 3, "protect": "full"}, "5a63b28ee82d510c"),
    ({"workload": "fft", "trials": 40, "seed": 3, "protect": "full", "recover": True},
     "4760460a6e07faee"),
    ({"workload": "fft", "trials": 40, "seed": 3, "protect": "full", "recover": True,
      "max_rollbacks": 2, "snapshot_period": 300}, "ee1136c903b7947d"),
    ({"workload": "is", "trials": 10, "budget_factor": 12}, "0a8e023c6cd91a1b"),
    ({"workload": "is", "trials": 10, "budget_factor": 12.5, "entry": "main"},
     "aaaedc3882190904"),
    ({"source": KERNEL, "trials": 24, "seed": 11}, "44c854a88a4735c3"),
    ({"source": KERNEL, "name": "kernel", "trials": 24, "seed": 11}, "44c854a88a4735c3"),
    ({"source": KERNEL, "name": "other", "trials": 24, "seed": 11, "budget_factor": 5},
     "16d40c9f5c49469e"),
    ({"source": KERNEL, "trials": 24, "seed": 11, "protect": "full"}, "20622a013f06988c"),
    ({"source": KERNEL, "trials": 24, "seed": 11, "protect": "full", "recover": True},
     "7aad88ba3971125e"),
]


def parse(argv):
    return CampaignSpec.from_args(build_parser().parse_args(argv))


def fingerprint(spec, module=None):
    return campaign_fingerprint(spec.build(module), spec.trials, spec.seed)


def source_spec(**overrides):
    data = {"source": KERNEL, "trials": 24, "seed": 11}
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not None}


class TestFingerprintParity:
    @pytest.mark.parametrize("model, protect", list(PINNED_INJECT))
    def test_inject_grid(self, model, protect):
        for warm, pinned in zip(WARM_ARGV, PINNED_INJECT[model, protect]):
            argv = ["inject", "fft", "--trials", "30", "--seed", "3",
                    "--fault-model", model, *PROTECT_ARGV[protect], *warm]
            assert fingerprint(parse(argv)) == pinned, argv

    @pytest.mark.parametrize("extra", list(PINNED_INJECT_IS))
    def test_inject_is(self, extra):
        spec = parse(["inject", "is", *extra.split()])
        assert fingerprint(spec) == PINNED_INJECT_IS[extra]

    @pytest.mark.parametrize("data, pinned", PINNED_JSON)
    def test_service_json(self, data, pinned):
        assert fingerprint(CampaignSpec.from_json(data)) == pinned

    def test_submit_argv_builds_the_inject_campaign(self):
        argv = ["--trials", "30", "--seed", "3", "--fault-model", "persistent",
                "--protect", "full", "--warm-start"]
        inject = parse(["inject", "fft", *argv])
        submit = parse(["submit", "fft", *argv])
        assert submit == inject
        # what submit sends is what the coordinator rebuilds
        assert CampaignSpec.from_json(json.loads(json.dumps(submit.to_json()))) == inject
        assert fingerprint(inject) == PINNED_INJECT["persistent", "full"][1]

    def test_library_caller_with_a_protected_module(self):
        """A caller holding a protected module passes it in; recovery
        then arms without the spec's own duplication."""
        module = get_workload("fft").compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        spec = CampaignSpec(workload="fft", trials=40, seed=3)
        campaign = spec.build(module, recovery=RecoveryPolicy())
        assert campaign_fingerprint(campaign, 40, 3) == "4760460a6e07faee"


class CountingVerifier(OutputVerifier):
    calls = 0

    def capture(self, interp):
        CountingVerifier.calls += 1
        return super().capture(interp)


class KernelWorkload(Workload):
    """Not in the registry; and ``fft`` below reuses a registered name."""

    name = "spec-kernel"
    source = KERNEL
    inputs = {1: {}, 2: {"n": 16}}
    budget_factor = 12.0

    def verifier(self):
        return CountingVerifier()


class TestLibraryWorkload:
    """Library drivers build from the caller's ``Workload`` object, never
    from a registry lookup of its name."""

    @pytest.mark.parametrize("name", ["spec-kernel", "fft"])
    def test_drivers_run_the_callers_workload(self, name):
        workload = type("W", (KernelWorkload,), {"name": name})()
        CountingVerifier.calls = 0
        data = collect_data(workload, 12, seed=1)
        assert "work" in data.module.functions
        assert data.campaign.counts.total == 12
        clean = evaluate_unprotected(workload, 10, seed=2, input_id=2)
        module = workload.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        protected = evaluate_variant(
            module, workload, clean.soc_fraction, clean.golden_cycles, "full", "all",
            trials=10, seed=2, input_id=2,
            recovery=RecoveryPolicy(region_retries=5, snapshot_cost=3),
        )
        assert protected.counts.total == 10
        assert CountingVerifier.calls == 3  # one golden run per campaign

    def test_spec_keeps_the_object_and_its_defaults(self):
        workload = KernelWorkload()
        spec = CampaignSpec(workload=workload, input=2, trials=5)
        assert spec.workload is workload
        assert (spec.entry, spec.budget_factor) == ("main", 12.0)
        assert spec.build().interp.module.name == "spec-kernel"
        with pytest.raises(ValueError, match="'input'"):
            CampaignSpec(workload=workload, input=3, trials=5)

    def test_callers_recovery_policy_is_armed_as_is(self):
        module = get_workload("fft").compile()
        policy = RecoveryPolicy(region_retries=5, rollback_cycle_budget=9, snapshot_cost=3)
        spec = CampaignSpec(workload="fft", trials=4)
        assert spec.build(module, recovery=policy).recovery is policy
        armed = CampaignSpec(workload="fft", trials=4, protect="full", recover=True)
        with pytest.raises(ValueError, match="'recover'.*exclusive"):
            armed.build(module, recovery=policy)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trials": True}, "trials"),
            ({"trials": None}, "trials"),
            ({"trials": 2.0}, "trials"),
            ({"seed": False}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"protect": "full", "recover": "no"}, "recover"),
            ({"recover": True}, "recover"),
            ({"recover": True, "protect": "none"}, "recover"),
            ({"budget_factor": "2"}, "budget_factor"),
            ({"budget_factor": 0}, "budget_factor"),
            ({"budget_factor": math.inf}, "budget_factor"),
            ({"budget_factor": True}, "budget_factor"),
            ({"protect": "most"}, "protect"),
            ({"max_rollbacks": -1}, "max_rollbacks"),
            ({"snapshot_period": 1.5}, "snapshot_period"),
            ({"warm_start": 1}, "warm_start"),
            ({"snapshot_stride": -5}, "snapshot_stride"),
            ({"fault_model": 3}, "fault_model"),
            ({"entry": ""}, "entry"),
            ({"name": 7}, "name"),
            ({"input": 2}, "input"),  # a source spec has no inputs
        ],
    )
    def test_bad_value_names_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            CampaignSpec.from_json(source_spec(**overrides))

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"workload": "fft", "trials": 5, "input": 9}, "input"),
            ({"workload": "fft", "trials": 5, "input": True}, "input"),
            ({"workload": "nope", "trials": 5}, "workload"),
            ({"workload": "fft", "trials": 5, "name": "other"}, "name"),
            ({"workload": 5, "trials": 5}, "workload"),
            ({"source": ["x"], "trials": 5}, "source"),
        ],
    )
    def test_bad_registry_value_names_the_key(self, data, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            CampaignSpec.from_json(data)

    @pytest.mark.parametrize(
        "bad", ["chaos", "transient-multibit:boom=1", "intermittent:p=7"]
    )
    def test_malformed_fault_model_reads_like_inject(self, bad):
        with pytest.raises(ValueError) as inject_error:
            validate_fault_model_spec(bad)
        with pytest.raises(ValueError, match="'fault_model'") as excinfo:
            CampaignSpec.from_json(source_spec(fault_model=bad))
        assert str(inject_error.value) in str(excinfo.value)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="object"):
            CampaignSpec.from_json(["fft"])
        with pytest.raises(ValueError, match="unknown spec key.*jobs"):
            CampaignSpec.from_json(source_spec(jobs=2))
        with pytest.raises(ValueError, match="exactly one"):
            CampaignSpec.from_json(source_spec(workload="fft"))

    @pytest.mark.parametrize("command", ["inject", "submit"])
    @pytest.mark.parametrize(
        "argv, key", [(["--recover"], "recover"), (["--trials", "0"], "trials")]
    )
    def test_argv_refused_before_any_work_naming_the_key(
        self, capsys, command, argv, key
    ):
        from repro.cli import main

        assert main([command, "is", *argv]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_frozen(self):
        spec = CampaignSpec.from_json(source_spec())
        with pytest.raises(AttributeError):
            spec.trials = 3


class TestCanonical:
    def test_defaults_filled_and_keys_sorted(self):
        spec = CampaignSpec.from_json({"workload": "FFT", "trials": 5})
        data = json.loads(spec.canonical())
        assert list(data) == sorted(data)
        assert data == {
            "budget_factor": 10.0, "entry": "main", "fault_model": "transient-1bit",
            "input": 1, "max_rollbacks": 8, "name": "kernel", "protect": "none",
            "recover": False, "seed": 0, "snapshot_period": 0,
            "snapshot_stride": 0, "trials": 5, "warm_start": False,
            "workload": "fft",
        }

    def test_fault_model_normalised(self):
        a = CampaignSpec.from_json(source_spec(fault_model="transient-multibit:k=2"))
        b = CampaignSpec.from_json(
            source_spec(fault_model=" transient-multibit: adjacent=1 ,k=2")
        )
        assert a.fault_model == "transient-multibit:adjacent=True,k=2"
        assert a.canonical() == b.canonical()

    def test_none_means_default(self):
        assert CampaignSpec.from_json(source_spec(seed=None, fault_model=None)) == (
            CampaignSpec.from_json(source_spec(seed=0))
        )

    def test_json_round_trip(self):
        for data, _pinned in PINNED_JSON:
            spec = CampaignSpec.from_json(data)
            assert CampaignSpec.from_json(spec.to_json()) == spec


class TestCliFlags:
    @staticmethod
    def flags(command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        return {opt for action in sub._actions for opt in action.option_strings}

    def test_submit_flags_are_a_subset_of_inject(self):
        assert self.flags("submit") - self.flags("inject") == {
            "--connect", "--port-file", "--timeout", "--no-wait",
        }

    def test_every_spec_flag_on_both_commands(self):
        for command in ("inject", "submit"):
            args = build_parser().parse_args([command, "fft"])
            assert {"warm_start", "snapshot_stride", "fault_model"} <= set(vars(args))

    def test_outcome_mix_names_the_model(self):
        out = io.StringIO()
        spec = CampaignSpec.from_json(
            {"workload": "is", "trials": 4, "fault_model": "persistent"}
        )
        _say_outcome_mix(out, spec, {"soc": 1, "crash": 3})
        text = out.getvalue()
        assert text.startswith("4 persistent faults injected into is:")
        assert "trial_failure" not in text
