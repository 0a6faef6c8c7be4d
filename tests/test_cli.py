"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["protect", "is", "--scale", "quick"])
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["protect", "is", "--scale", "huge"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("comd", "hpccg", "amg", "fft", "is"):
            assert name in out
        assert "training input" in out

    def test_run(self, capsys):
        assert main(["run", "is"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "sorted_keys" in out

    def test_run_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["run", "linpack"])

    def test_inject(self, capsys):
        assert main(["inject", "is", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "20 single-bit faults" in out
        assert "masked" in out and "soc" in out

    def test_compile(self, tmp_path, capsys):
        source = tmp_path / "kernel.scil"
        source.write_text(
            "output double r[1];\n"
            "void main() { r[0] = sqrt(2.0); }\n"
        )
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "define void @main()" in out
        assert "@r = global" in out

    def test_compile_no_opt_keeps_allocas(self, tmp_path, capsys):
        source = tmp_path / "kernel.scil"
        source.write_text(
            "output double r[1];\n"
            "void main() { double x = 1.5; r[0] = x * 2.0; }\n"
        )
        assert main(["compile", str(source), "--no-opt"]) == 0
        out = capsys.readouterr().out
        assert "alloca" in out

    def test_protect_quick(self, capsys, monkeypatch):
        monkeypatch.setenv("IPAS_TRAIN_SAMPLES", "60")
        monkeypatch.setenv("IPAS_GRID_CONFIGS", "4")
        monkeypatch.setenv("IPAS_TOP_N", "1")
        monkeypatch.setenv("IPAS_SCALE", "quick")
        assert main(["protect", "is"]) == 0
        out = capsys.readouterr().out
        assert "duplicated" in out
        assert "training campaign" in out


class TestAnalyze:
    def test_analyze_workload_text(self, capsys):
        assert main(["analyze", "hpccg"]) == 0
        out = capsys.readouterr().out
        assert "diagnostics: 0 errors, 0 warnings, 0 notes" in out
        assert "static risk:" in out

    def test_analyze_json_covers_every_duplicable_instruction(self, capsys):
        import json

        from repro.analysis.risk import DUPLICABLE_TYPES
        from repro.workloads import get_workload

        assert main(["analyze", "is", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_ok"] is True
        module = get_workload("is").compile()
        duplicable = sum(
            isinstance(i, DUPLICABLE_TYPES) for i in module.instructions()
        )
        assert len(payload["risk"]) == duplicable
        for entry in payload["risk"]:
            assert {"function", "block", "opcode", "risk"} <= set(entry)

    def test_analyze_scil_file(self, tmp_path, capsys):
        source = tmp_path / "kernel.scil"
        source.write_text(
            "output double r[1];\n"
            "void main() { r[0] = sqrt(2.0); }\n"
        )
        assert main(["analyze", str(source)]) == 0
        out = capsys.readouterr().out
        assert "static risk:" in out

    def test_analyze_unknown_target(self, capsys):
        assert main(["analyze", "linpack"]) == 2
        assert "unknown analyze target" in capsys.readouterr().err

    def test_analyze_debug_passes(self, capsys):
        assert main(["analyze", "fft", "--debug-passes"]) == 0
        out = capsys.readouterr().out
        assert "pass pipeline checkpoints:" in out
        for name in ("mem2reg", "constant-fold", "simplify-cfg", "dce"):
            assert name in out

    def dead_store_kernel(self, tmp_path):
        source = tmp_path / "deadstore.scil"
        source.write_text(
            "int scratch = 0;\n"
            "output double r[1];\n"
            "void main() { scratch = 5; r[0] = 1.5; }\n"
        )
        return str(source)

    def test_analyze_fail_on_warning(self, tmp_path, capsys):
        target = self.dead_store_kernel(tmp_path)
        # A warning finding: exit 0 under the default error gate, exit 1
        # when warnings gate CI.
        assert main(["analyze", target]) == 0
        capsys.readouterr()
        assert main(["analyze", target, "--fail-on", "warning"]) == 1
        assert "warning[DS01]" in capsys.readouterr().out

    def test_analyze_fail_on_warning_clean_module(self, capsys):
        assert main(["analyze", "hpccg", "--fail-on", "warning"]) == 0

    def test_analyze_coverage_text(self, capsys):
        assert main(["analyze", "hpccg", "--coverage", "--protect", "full"]) == 0
        out = capsys.readouterr().out
        assert "coverage prover:" in out
        assert "detected" in out

    def test_analyze_coverage_json(self, capsys):
        import json

        assert main(
            ["analyze", "is", "--coverage", "--protect", "full",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["coverage"]["summary"]
        assert summary["sites"] == (
            summary["detected"] + summary["masked"] + summary["escapes"]
        )
        assert summary["detected"] > 0  # full duplication must cover sites
        for site in payload["coverage"]["sites"]:
            assert site["verdict"] in ("detected", "masked", "escapes")

    def test_analyze_unprotected_coverage_all_escapes_or_masked(self, capsys):
        import json

        assert main(["analyze", "is", "--coverage", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"]["summary"]["detected"] == 0

    def test_analyze_risk_threshold_flag_parses(self):
        args = build_parser().parse_args(
            ["analyze", "is", "--risk-threshold", "0.5", "--top", "3"]
        )
        assert args.risk_threshold == 0.5 and args.top == 3


class TestChaosSpecValidation:
    """--chaos specs are rejected at argparse time, naming the bad token,
    instead of blowing up (or worse, being ignored) mid-campaign."""

    def test_inject_accepts_good_spec(self):
        args = build_parser().parse_args(
            ["inject", "is", "--chaos", "kill@7,hang@12:3"]
        )
        assert args.chaos == "kill@7,hang@12:3"

    def test_inject_rejects_bad_spec_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["inject", "is", "--chaos", "explode@7"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "explode@7" in err
        assert "kill@IDX" in err

    def test_serve_accepts_good_spec(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "j", "--chaos", "kill@2,drop-ack@1"]
        )
        assert args.chaos == "kill@2,drop-ack@1"

    def test_serve_rejects_bad_spec_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--journal", "j", "--chaos", "kaboom@3"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "kaboom@3" in err
        assert "drop-ack@N" in err

    def test_serve_rejects_worker_grammar(self, capsys):
        # The two grammars must not leak into each other.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--journal", "j", "--chaos", "hang@2:1"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inject", "is", "--chaos", "drop-ack@1"])


class TestFaultModelSpecValidation:
    """--fault-model specs are rejected at argparse time, naming the bad
    token, exactly like --chaos."""

    def test_inject_accepts_good_specs(self):
        for spec in (
            "transient-1bit",
            "transient-multibit:k=3,adjacent=0",
            "pattern:kind=stuck1",
            "intermittent:p=0.25,window=4",
            "persistent",
        ):
            args = build_parser().parse_args(
                ["inject", "is", "--fault-model", spec]
            )
            assert args.fault_model == spec

    def test_inject_rejects_unknown_model_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["inject", "is", "--fault-model", "chaos"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'chaos'" in err
        assert "transient-1bit" in err

    def test_inject_rejects_bad_parameter_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["inject", "is", "--fault-model", "transient-multibit:boom=1"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "boom=1" in err
        assert "adjacent" in err and "k" in err

    def test_inject_rejects_out_of_range_parameter(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["inject", "is", "--fault-model", "intermittent:p=7"]
            )
        assert excinfo.value.code == 2
        assert "p must be in (0, 1]" in capsys.readouterr().err

    def test_inject_status_line_names_the_model(self, capsys):
        assert main(
            ["inject", "is", "--trials", "10", "--fault-model", "persistent"]
        ) == 0
        out = capsys.readouterr().out
        assert "10 persistent faults injected into is" in out

    def test_inject_default_status_line_unchanged(self, capsys):
        assert main(
            ["inject", "is", "--trials", "10", "--fault-model", "transient-1bit"]
        ) == 0
        assert "10 single-bit faults injected into is" in capsys.readouterr().out


class TestSupervisionFlagValidation:
    """--trial-timeout and --max-retries are rejected at argparse time,
    naming the flag, on every command that runs a campaign."""

    @pytest.mark.parametrize("command", ["inject", "protect", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-retries", "-1"),
            ("--trial-timeout", "0"),
            ("--trial-timeout", "-2.5"),
            ("--trial-timeout", "nan"),
            ("--trial-timeout", "inf"),
        ],
    )
    def test_rejects_bad_value_naming_flag(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "fft", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert value in err

    def test_inject_bad_max_retries_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "fft", "--trials", "2", "--max-retries", "-1"])
        assert excinfo.value.code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_accepts_good_values(self):
        args = build_parser().parse_args(
            ["inject", "fft", "--trial-timeout", "2.5", "--max-retries", "0"]
        )
        assert args.trial_timeout == 2.5
        assert args.max_retries == 0

    def test_unset_flags_keep_env_defaults(self, monkeypatch):
        from repro.cli import _resolve_supervision

        monkeypatch.setenv("IPAS_MAX_RETRIES", "5")
        args = build_parser().parse_args(["inject", "fft", "--trial-timeout", "3"])
        policy = _resolve_supervision(args)
        assert policy.trial_timeout == 3.0
        assert policy.max_retries == 5
        assert policy.on_worker_failure == "respawn"
        args = build_parser().parse_args(["inject", "fft"])
        assert _resolve_supervision(args) is None


class TestServiceCommands:
    def test_submit_requires_address(self, capsys):
        assert main(["submit", "fft", "--trials", "4"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_status_requires_address(self, capsys):
        assert main(["status"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_worker_requires_address(self, capsys):
        assert main(["worker"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_serve_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
