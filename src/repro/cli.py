"""Command-line interface: ``python -m repro <command>``.

Commands mirror how a user would adopt the library:

* ``list``                     — the built-in workloads and their inputs;
* ``compile FILE``             — compile a scil file and print the IR;
* ``run WORKLOAD``             — one golden run, outputs + cycle count;
* ``inject WORKLOAD``          — a fault-injection campaign, outcome mix;
* ``protect WORKLOAD``         — the full IPAS pipeline, protection report;
* ``evaluate WORKLOAD``        — unprotected vs full-dup vs IPAS vs baseline
  vs the injection-free static-risk selector;
* ``analyze TARGET``           — static SOC-risk scores and IR diagnostics
  for a workload or a ``.scil`` file, no fault injection required;
* ``report PATH``              — render an observability artifact (metrics
  JSON, heatmap JSON, or a campaign trace) written by ``inject``;
* ``serve`` / ``worker`` / ``submit`` / ``status`` — the campaign service:
  a fault-tolerant coordinator over localhost sockets with a durable job
  journal, socket workers that lease trial-chunks from it, and clients
  that submit campaigns and watch progress.

Human-facing status lines go to stderr whenever the command also prints a
JSON artifact to stdout (``--metrics-out -`` / ``--heatmap -``), so piped
output stays machine-readable; ``--quiet`` suppresses them entirely.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="campaign worker processes (default: IPAS_JOBS env or 1; 0 = all CPUs)",
    )


def _checked(validator: str, convert=str):
    """An argparse type converting the text with ``convert`` and running
    ``repro.faults.<validator>`` on the value at parse time, so a bad value
    is a usage error naming the flag and the offending token instead of a
    failure mid-campaign."""

    def check(text: str):
        from . import faults

        try:
            value = convert(text)
            getattr(faults, validator)(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return check


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The campaign flags ``inject`` and ``submit`` share; each is a
    ``repro.faults.CampaignSpec`` field, and ``main`` parses them into
    ``args.spec`` before the command runs."""
    parser.add_argument("workload")
    parser.add_argument("--input", type=int, default=1, choices=[1, 2, 3, 4])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protect",
        choices=["none", "full"],
        default="none",
        help="inject into the clean module (default) or one protected by "
        "full duplication (whose checks can fire)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="arm the rollback runtime: a fired check re-executes from the "
        "last region snapshot instead of fail-stopping (needs --protect full)",
    )
    parser.add_argument(
        "--max-rollbacks",
        type=int,
        default=8,
        metavar="N",
        help="total rollbacks allowed per run before a detection escalates "
        "to fail-stop (default: 8; needs --recover)",
    )
    parser.add_argument(
        "--snapshot-period",
        type=int,
        default=0,
        metavar="CYCLES",
        help="minimum cycles between region snapshots; 0 snapshots at every "
        "region boundary (default: 0; needs --recover)",
    )
    parser.add_argument(
        "--warm-start",
        action="store_true",
        help="capture a snapshot ladder during the golden run and start each "
        "trial from the rung just before its injection point, executing only "
        "the suffix (bit-identical outcomes, same at any --jobs)",
    )
    parser.add_argument(
        "--snapshot-stride",
        type=int,
        default=0,
        metavar="CYCLES",
        help="cycles between warm-start ladder rungs; 0 picks an automatic "
        "stride of about golden_cycles/128 (default: 0; needs --warm-start)",
    )
    parser.add_argument(
        "--fault-model",
        metavar="SPEC",
        default=None,
        type=_checked("validate_fault_model_spec"),
        help="corruption model: NAME[:key=value,...] — transient-1bit "
        "(default), transient-multibit:k=K,adjacent=BOOL, pattern:kind=KIND, "
        "intermittent:p=P,window=W, persistent; a malformed spec is "
        "rejected before the campaign starts",
    )


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trial-timeout",
        type=_checked("validate_seconds", float),
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per trial; a worker past its chunk deadline "
        "is killed and its trials requeued (default: IPAS_TRIAL_TIMEOUT env "
        "or no deadline)",
    )
    parser.add_argument(
        "--max-retries",
        type=_checked("validate_max_retries", int),
        default=None,
        metavar="N",
        help="re-attempts for a trial whose worker died before it is "
        "quarantined as a trial_failure (default: IPAS_MAX_RETRIES env or 2)",
    )
    parser.add_argument(
        "--on-worker-failure",
        choices=["respawn", "serial", "abort"],
        default=None,
        help="reaction to a dead/hung worker: respawn it (default), fall "
        "back to serial execution, or abort (default: IPAS_ON_WORKER_FAILURE "
        "env or 'respawn')",
    )


def _resolve_supervision(args):
    """A SupervisorPolicy when any knob was given, else None (env defaults);
    a knob left unset keeps its env default."""
    knobs = {
        "trial_timeout": args.trial_timeout,
        "max_retries": args.max_retries,
        "on_worker_failure": args.on_worker_failure,
    }
    if all(value is None for value in knobs.values()):
        return None
    from .faults import SupervisorPolicy

    env = SupervisorPolicy.from_env()
    return SupervisorPolicy(
        **{k: getattr(env, k) if v is None else v for k, v in knobs.items()}
    )


def _add_quiet_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress human-facing status lines (JSON artifacts still print)",
    )


def _status_stream(args):
    """Where status lines go: None under --quiet, stderr when stdout
    carries a JSON artifact, else stdout."""
    if getattr(args, "quiet", False):
        return None
    if getattr(args, "metrics_out", None) == "-" or getattr(args, "heatmap", None) == "-":
        return sys.stderr
    return sys.stdout


def _say(stream, message: str) -> None:
    if stream is not None:
        print(message, file=stream)


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=["quick", "default", "paper"],
        default=None,
        help="campaign-size preset (default: IPAS_SCALE env or 'default')",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")


def _resolve_scale(args):
    from .core import ExperimentScale

    if args.scale is not None:
        return ExperimentScale.preset(args.scale)
    return ExperimentScale.from_env()


def cmd_list(args) -> int:
    from .workloads import all_workloads

    for workload in all_workloads():
        print(f"{workload.name:>6}: {workload.description}")
        for input_id in sorted(workload.inputs):
            marker = " (training input)" if input_id == 1 else ""
            print(f"         input {input_id}: {workload.input_labels[input_id]}{marker}")
    return 0


def cmd_compile(args) -> int:
    from . import compile_source
    from .ir import print_module

    with open(args.file) as fh:
        source = fh.read()
    module = compile_source(source, name=args.file, optimize=not args.no_opt)
    print(print_module(module))
    print(
        f"; {module.static_instruction_count} static instructions, "
        f"{len(module.defined_functions())} functions",
        file=sys.stderr,
    )
    return 0


def cmd_run(args) -> int:
    from .workloads import get_workload

    workload = get_workload(args.workload)
    interp = workload.make_interpreter(args.input)
    profiler = None
    if args.block_profile:
        from .obs import BlockProfiler

        profiler = BlockProfiler(interp.cm)
        with profiler:
            result = interp.run()
    else:
        result = interp.run()
    print(f"status: {result.status}")
    print(f"cycles: {result.cycles}")
    for gv in interp.module.output_globals():
        value = interp.read_global(gv.name)
        if isinstance(value, list) and len(value) > 8:
            preview = ", ".join(f"{v:.6g}" for v in value[:8])
            print(f"{gv.name}: [{preview}, ...] ({len(value)} cells)")
        else:
            print(f"{gv.name}: {value}")
    if profiler is not None:
        from .obs import render_block_report

        print(render_block_report(profiler.report(), limit=args.top))
    return 0 if result.status == "ok" else 1


def _say_outcome_mix(out, spec, counts) -> None:
    """The outcome table ``inject`` and ``submit`` both print; ``counts``
    maps outcome values to trial counts."""
    from .faults import Outcome

    model = "single-bit" if spec.fault_model == "transient-1bit" else spec.fault_model
    _say(out, f"{spec.trials} {model} faults injected into {spec.workload}:")
    for outcome in Outcome:
        count = counts.get(outcome.value, 0)
        if outcome is Outcome.TRIAL_FAILURE and count == 0:
            continue  # harness-only outcome; hide it for undisturbed runs
        _say(out, f"  {outcome.value:>9}: {count:5d}  ({100*count/spec.trials:5.1f}%)")


def cmd_inject(args) -> int:
    from .faults import Outcome

    spec = args.spec
    campaign = spec.build()

    if args.verify_checkpoint:
        return _verify_checkpoint_report(args, campaign)

    chaos = None
    if args.chaos:
        from .faults.chaos import parse_chaos_spec

        chaos = parse_chaos_spec(args.chaos)
    obs = None
    if args.trace or args.metrics_out or args.heatmap:
        from .obs import Observation

        obs = Observation(
            trace_path=args.trace,
            metrics_path=args.metrics_out if args.metrics_out != "-" else None,
        )
    result = campaign.run(
        spec.trials,
        seed=spec.seed,
        n_jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        progress=args.progress,
        supervision=_resolve_supervision(args),
        chaos=chaos,
        obs=obs,
    )
    out = _status_stream(args)
    _say_outcome_mix(out, spec, {o.value: n for o, n in result.counts.counts.items()})
    stats = result.stats
    if stats is not None and stats.completed:
        _say(
            out,
            f"  throughput: {stats.trials_per_second:.1f} trials/s "
            f"({stats.n_jobs} worker{'s' if stats.n_jobs != 1 else ''}, "
            f"utilization {stats.utilization:.0%}"
            + (f", {stats.resumed} resumed from checkpoint" if stats.resumed else "")
            + ")"
        )
    if stats is not None and (stats.harness_events or stats.serial_fallback):
        _say(
            out,
            f"  harness: {stats.worker_deaths} worker death"
            f"{'s' if stats.worker_deaths != 1 else ''} "
            f"({stats.hangs} hangs), {stats.respawns} respawns, "
            f"{stats.retries} retries, {stats.quarantined} quarantined"
            + (", serial fallback" if stats.serial_fallback else "")
        )
    if spec.warm_start and stats is not None:
        _say(
            out,
            f"  warm-start: {stats.warm_restores} trials restored from the "
            f"snapshot ladder (stride {campaign.effective_stride} cycles), "
            f"{stats.golden_resyncs} golden resyncs, "
            f"{stats.warm_cycles_saved} prefix cycles skipped"
        )
    if spec.recover and stats is not None:
        corrected = result.counts.counts[Outcome.CORRECTED]
        fired = corrected + result.counts.counts[Outcome.DETECTED]
        _say(
            out,
            f"  recovery: {stats.rollbacks} rollbacks, "
            f"{corrected}/{fired or 1} fired checks corrected "
            f"({100 * result.counts.corrected_fraction:.1f}% of trials), "
            f"mean re-executed cycles {stats.mean_rollback_cycles:.0f}, "
            f"{stats.escalations} escalations"
        )
    return _write_inject_artifacts(args, campaign, result, obs, out)


def _write_inject_artifacts(args, campaign, result, obs, out) -> int:
    """Flush ``inject``'s observability artifacts; ``-`` means stdout."""
    import json as json_module

    if args.metrics_out == "-" and obs is not None:
        payload = {"kind": "ipas-metrics", "metrics": obs.registry.as_dict()}
        json_module.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    elif args.metrics_out:
        _say(out, f"  metrics: {args.metrics_out}")
    if args.heatmap:
        from .obs import build_heatmap, write_heatmap

        heatmap = build_heatmap(
            result.records,
            campaign.interp.module,
            model=campaign.fault_model,
        )
        if args.heatmap == "-":
            json_module.dump(heatmap, sys.stdout, indent=1)
            sys.stdout.write("\n")
        else:
            write_heatmap(heatmap, args.heatmap)
            _say(out, f"  heatmap: {args.heatmap}")
    if args.trace:
        _say(out, f"  trace: {args.trace} (open in https://ui.perfetto.dev)")
    return 0


def _verify_checkpoint_report(args, campaign) -> int:
    """``inject --verify-checkpoint``: validate CRCs + fingerprint, report
    recoverable vs. lost trials.  Exit 0 iff the file belongs to this
    campaign and its header is sound."""
    from .faults import campaign_fingerprint, verify_checkpoint

    fingerprint = campaign_fingerprint(campaign, args.trials, args.seed)
    report = verify_checkpoint(
        args.checkpoint,
        fingerprint=fingerprint,
        n_trials=args.trials,
        seed=args.seed,
    )
    print(f"checkpoint: {report['path']}")
    if report["error"]:
        print(f"  error: {report['error']}")
        return 1
    print(f"  version: {report['version']} (ok)")
    print(
        f"  fingerprint: {report['fingerprint']} "
        + ("(matches campaign)" if report["fingerprint_ok"] else "(MISMATCH)")
    )
    lost = report["lost"] if report["lost"] is not None else "?"
    print(
        f"  recoverable trials: {report['recoverable']}/{args.trials} "
        f"({lost} must re-run)"
    )
    print(f"  corrupted lines: {report['corrupted_lines']}")
    print(f"  torn tail: {'yes' if report['truncated_tail'] else 'no'}")
    for unknown in report["unknown_outcomes"]:
        print(
            f"  line {unknown['line']}: unknown outcome "
            f"{unknown['outcome']!r} (newer engine?); excluded from resume"
        )
    return 0 if report["fingerprint_ok"] else 1


def cmd_protect(args) -> int:
    from .core import IpasPipeline
    from .ir.verifier import VerificationError, verify_module
    from .workloads import get_workload

    workload = get_workload(args.workload)
    scale = _resolve_scale(args)
    # protect never emits JSON on stdout, so status stays there (stderr is
    # only for commands whose stdout carries a machine-readable payload)
    out = _status_stream(args)
    _say(out, f"scale: {scale!r}")
    pipeline = IpasPipeline(
        workload,
        scale,
        seed=args.seed,
        n_jobs=args.jobs,
        supervision=_resolve_supervision(args),
    )
    data = pipeline.collect_training_data()
    _say(out, f"training campaign: {data.campaign.counts}")
    _say(out, f"SOC-generating fraction: {data.positive_fraction:.1%}")
    try:
        variants = pipeline.protect_all()
        for variant in variants:
            verify_module(variant.module)
    except VerificationError as exc:
        print(f"error: protected module failed verification:\n{exc}", file=sys.stderr)
        return 1
    _say(out, f"training time: {pipeline.training_seconds:.1f}s")
    for i, variant in enumerate(variants):
        report = variant.report
        _say(
            out,
            f"cfg{i+1} {variant.config}: duplicated "
            f"{report.duplicated}/{report.eligible} "
            f"({report.duplicated_fraction:.1%}), {report.checks_inserted} checks, "
            f"{variant.duplication_seconds:.2f}s"
        )
    return 0


def cmd_evaluate(args) -> int:
    from .experiments import (
        best_by_ideal_point,
        format_table,
        outcome_row,
        run_full_evaluation,
    )
    from .ir.verifier import VerificationError

    scale = _resolve_scale(args)
    try:
        result = run_full_evaluation(
            args.workload,
            scale,
            seed=args.seed,
            n_jobs=args.jobs,
            supervision=_resolve_supervision(args),
        )
    except VerificationError as exc:
        print(f"error: protected module failed verification:\n{exc}", file=sys.stderr)
        return 1
    headers = ["variant", "symptom", "detected", "masked", "SOC", "slowdown"]
    rows = [
        ["unprotected", *outcome_row(result["unprotected"]["counts"]), "1.00"],
        [
            "full dup.",
            *outcome_row(result["full"]["counts"]),
            f"{result['full']['slowdown']:.2f}",
        ],
    ]
    static = result.get("static")  # absent in result dicts cached by older versions
    if static is not None:
        rows.append(
            [
                "static risk",
                *outcome_row(static["counts"]),
                f"{static['slowdown']:.2f}",
            ]
        )
    for bucket, title in (("ipas", "IPAS"), ("baseline", "Baseline")):
        for entry in result[bucket]:
            rows.append(
                [
                    f"{title} {entry['label']}",
                    *outcome_row(entry["counts"]),
                    f"{entry['slowdown']:.2f}",
                ]
            )
    print(format_table(headers, rows))
    best = best_by_ideal_point(result["ipas"])
    print(
        f"\nbest IPAS config ({best['label']}): "
        f"{best['soc_reduction']:.1f}% SOC reduction at {best['slowdown']:.2f}x"
    )
    return 0


def _load_analysis_module(target: str, optimize: bool):
    """A module for ``analyze``: a workload name or a ``.scil`` file path."""
    import os

    from . import compile_source
    from .workloads import get_workload
    from .workloads.registry import WORKLOAD_CLASSES

    if target.lower() in WORKLOAD_CLASSES:
        return get_workload(target).compile(optimize=optimize)
    if os.path.exists(target):
        with open(target) as fh:
            return compile_source(fh.read(), name=target, optimize=optimize)
    raise KeyError(
        f"unknown analyze target {target!r}: not a workload "
        f"({', '.join(WORKLOAD_CLASSES)}) and not a file"
    )


def cmd_analyze(args) -> int:
    """Exit codes: 0 — no findings at or above the ``--fail-on`` severity;
    1 — findings at or above it (default: errors); 2 — the target could not
    be loaded or compiled."""
    import json as json_module

    from .analysis import StaticRiskModel
    from .diag import (
        Diagnostic,
        DiagnosticReport,
        Severity,
        render_json,
        render_text,
        run_lints,
    )
    from .ir.verifier import VerificationError, verify_module

    try:
        module = _load_analysis_module(args.target, optimize=not args.no_opt)
    except (KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if getattr(args, "protect", "none") == "full":
        from .protect.duplication import duplicate_instructions
        from .protect.selectors import FullDuplicationSelector

        duplicate_instructions(module, FullDuplicationSelector().select(module))

    report = DiagnosticReport()
    try:
        verify_module(module)
    except VerificationError as exc:
        report.add(Diagnostic("VERIFY", Severity.ERROR, str(exc)))
    report.extend(run_lints(module, risk_threshold=args.risk_threshold))
    risk = StaticRiskModel(module).assess_module()

    coverage = None
    if args.coverage:
        from .analysis import coverage_report

        coverage = coverage_report(module)

    debug_lines = []
    if args.debug_passes:
        from .passes import standard_pipeline

        fresh = _load_analysis_module(args.target, optimize=False)
        pipeline = standard_pipeline(debug=True)
        pipeline.run(fresh)
        for record in pipeline.debug_records:
            debug_lines.append(record.format())

    if args.format == "json":
        payload = json_module.loads(render_json(report, risk, module_name=module.name))
        if coverage is not None:
            payload["coverage"] = coverage.to_dict()
        print(json_module.dumps(payload, indent=2))
    else:
        print(render_text(report, risk, risk_limit=args.top))
        if coverage is not None:
            print(_render_coverage(coverage, limit=args.top))
        if debug_lines:
            print("pass pipeline checkpoints:")
            print("\n".join(debug_lines))

    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    return 1 if len(report.filter(threshold)) else 0


def _render_coverage(coverage, limit: int) -> str:
    """Text block for ``analyze --coverage``."""
    from .analysis import Verdict
    from .experiments import format_table

    summary = coverage.summary()
    lines = [
        "",
        f"coverage prover: {summary['sites']} fault sites — "
        f"{summary['detected']} detected, {summary['masked']} masked, "
        f"{summary['escapes']} escape",
    ]
    escaping = coverage.with_verdict(Verdict.ESCAPES)
    if escaping:
        lines.append(f"escaping sites (first {min(limit, len(escaping))}):")
        headers = ["site", "opcode", "escapes via"]
        rows = [
            [
                f"{s.function}/{s.block}[{s.index}]",
                s.opcode,
                s.escapes[0] if s.escapes else "?",
            ]
            for s in escaping[:limit]
        ]
        lines.append(format_table(headers, rows))
    return "\n".join(lines)


def cmd_report(args) -> int:
    """Render an observability artifact written by ``inject``.

    Auto-detects the artifact kind: an ``ipas-metrics`` JSON dump, an
    ``ipas-heatmap`` JSON report, or a Chrome trace-event file.  Exit
    codes: 0 — rendered (and, for ``--validate``, the trace checked out);
    1 — trace validation failed; 2 — the file is not a known artifact.
    """
    import json as json_module

    try:
        with open(args.path) as fh:
            head = fh.read(64)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if head.lstrip().startswith("["):
        from .obs import validate_trace

        report = validate_trace(args.path)
        if args.format == "json":
            print(json_module.dumps(report, indent=1))
        else:
            phases = ", ".join(
                f"{ph}:{n}" for ph, n in sorted(report["phases"].items())
            )
            print(f"trace: {report['path']}")
            print(f"  events: {report['events']} ({phases})")
            print(f"  lanes: {report['lanes']}")
            for error in report["errors"]:
                print(f"  error: {error}")
            print(f"  spans nest: {'ok' if report['ok'] else 'BROKEN'}")
            print("  open in https://ui.perfetto.dev or chrome://tracing")
        if args.validate:
            return 0 if report["ok"] else 1
        return 0

    try:
        with open(args.path) as fh:
            payload = json_module.load(fh)
    except (OSError, json_module.JSONDecodeError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "ipas-metrics":
        if args.format == "json":
            print(json_module.dumps(payload, indent=1))
        else:
            from .obs import render_metrics_text

            print(render_metrics_text(payload["metrics"]))
        return 0
    if kind == "ipas-heatmap":
        if args.format == "json":
            print(json_module.dumps(payload, indent=1))
        else:
            from .obs import render_heatmap_text

            print(render_heatmap_text(payload, limit=args.top))
        return 0
    print(
        f"error: {args.path}: not an ipas-metrics/ipas-heatmap/trace artifact",
        file=sys.stderr,
    )
    return 2


# -- campaign service ---------------------------------------------------------


def _add_connect_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="coordinator address (HOST:PORT, or a bare PORT on localhost)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="read the coordinator's port from a file written by "
        "'serve --port-file' (polls until it appears)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request timeout (default: 30)",
    )


def _service_client(args):
    """A connected ServiceClient from --connect / --port-file."""
    from .service.client import ServiceClient, parse_connect, read_port_file

    if args.port_file:
        return ServiceClient(port=read_port_file(args.port_file), timeout=args.timeout)
    if args.connect:
        host, port = parse_connect(args.connect)
        return ServiceClient(host, port, timeout=args.timeout)
    raise ValueError("need --connect HOST:PORT or --port-file PATH")


def cmd_serve(args) -> int:
    """Run a campaign-service coordinator until shut down."""
    import asyncio
    import json as json_module
    import os
    import signal
    import subprocess

    from .service import CoordinatorServer

    chaos = None
    if args.chaos:
        from .faults.chaos import parse_service_chaos_spec

        # Chaos fire-once markers live next to the journal so a killed and
        # restarted coordinator does not re-fire the same event.
        chaos = parse_service_chaos_spec(
            args.chaos, state_dir=os.path.join(args.journal, "chaos-state")
        )
    obs = None
    if args.trace or (args.metrics_out and args.metrics_out != "-"):
        from .obs import Observation

        obs = Observation(
            trace_path=args.trace,
            metrics_path=args.metrics_out if args.metrics_out != "-" else None,
        )
    server = CoordinatorServer(
        args.journal,
        host=args.host,
        port=args.port,
        chunk_size=args.chunk,
        lease_timeout=args.lease_timeout,
        solo_grace=args.solo_grace,
        solo=not args.no_solo,
        chaos=chaos,
        registry=obs.registry if obs is not None else None,
        tracer=obs.open_trace() if obs is not None else None,
    )
    out = _status_stream(args)
    loop = asyncio.new_event_loop()
    workers = []
    try:
        loop.run_until_complete(server.start())
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.stop())
                )
            except (NotImplementedError, OSError):  # pragma: no cover
                pass
        if args.port_file:
            # Atomic write: a client polling the file never reads a torn
            # port, and its existence means the socket is already bound.
            tmp = args.port_file + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(f"{server.port}\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, args.port_file)
        _say(
            out,
            f"coordinator listening on {server.host}:{server.port} "
            f"(journal: {args.journal})",
        )
        for _ in range(args.workers):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        f"{server.host}:{server.port}",
                        "--quiet",
                    ]
                )
            )
        if workers:
            _say(out, f"spawned {len(workers)} worker process(es)")
        loop.run_until_complete(server.wait_closed())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        loop.run_until_complete(server.stop())
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=5)
            except Exception:  # pragma: no cover
                proc.kill()
        if obs is not None:
            obs.close()
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
    if args.metrics_out == "-":
        payload = {"kind": "ipas-metrics", "metrics": server.registry.as_dict()}
        json_module.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    _say(out, "coordinator stopped")
    return 0


def cmd_worker(args) -> int:
    """Run one socket worker against a coordinator."""
    from .service.client import parse_connect, read_port_file
    from .service.worker import run_worker

    if args.port_file:
        host, port = "127.0.0.1", read_port_file(args.port_file)
    elif args.connect:
        host, port = parse_connect(args.connect)
    else:
        print("error: need --connect HOST:PORT or --port-file PATH", file=sys.stderr)
        return 2
    log = None
    if not args.quiet:
        def log(text):
            print(f"worker: {text}", file=sys.stderr)
    return run_worker(
        host,
        port,
        ack_timeout=args.timeout,
        idle_exit=args.idle_exit,
        log=log,
    )


def cmd_submit(args) -> int:
    """Submit a campaign to a coordinator; by default wait and print the
    same outcome mix ``inject`` would."""
    from .service.client import ServiceError

    spec = args.spec
    out = _status_stream(args)
    try:
        client = _service_client(args)
    except (ValueError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            reply = client.submit(spec.to_json())
            job = reply["job"]
            _say(
                out,
                f"job {job}: {reply.get('disposition')} "
                f"({reply.get('done', 0)}/{reply.get('n_trials')} trials done"
                + (f", {reply.get('resumed')} resumed" if reply.get("resumed") else "")
                + ")",
            )
            if args.no_wait:
                print(job)
                return 0
            if reply.get("state") not in ("done", "failed"):
                for event in client.watch(job):
                    if event.get("op") == "progress" and args.progress:
                        _say(
                            out,
                            f"  {event['done']}/{event['n_trials']} trials",
                        )
            status = client.status(job)
            if status.get("state") != "done":
                print(
                    f"error: job {job} {status.get('state')}: "
                    f"{status.get('error', 'unknown failure')}",
                    file=sys.stderr,
                )
                return 1
        except (ServiceError, OSError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    _say_outcome_mix(out, spec, status.get("counts") or {})
    return 0


def cmd_status(args) -> int:
    """Show a coordinator's jobs (or one job) from the outside."""
    import json as json_module

    from .service.client import ServiceError

    try:
        client = _service_client(args)
    except (ValueError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.shutdown:
                client.shutdown()
                print("coordinator shutting down")
                return 0
            status = client.status(args.job)
        except (ServiceError, OSError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        status.pop("ok", None)
        json_module.dump(status, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    if args.job is not None:
        line = (
            f"{status['job']}: {status['state']} "
            f"{status['done']}/{status['n_trials']} trials (seed {status['seed']}"
            + (f", {status['resumed']} resumed" if status.get("resumed") else "")
            + ")"
        )
        print(line)
        if status.get("error"):
            print(f"  error: {status['error']}")
        for outcome, count in sorted((status.get("counts") or {}).items()):
            print(f"  {outcome:>9}: {count}")
        return 0
    jobs = status.get("jobs", [])
    print(
        f"{len(jobs)} job(s), {status.get('workers', 0)} worker(s), "
        f"{status.get('leases', 0)} active lease(s)"
    )
    for job in jobs:
        print(
            f"  {job['job']}: {job['state']} {job['done']}/{job['n_trials']}"
            + (f" ({job['resumed']} resumed)" if job.get("resumed") else "")
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IPAS (CGO 2016) reproduction: ML-guided selective "
        "instruction duplication against silent output corruption",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in workloads")

    p_compile = sub.add_parser("compile", help="compile a scil file, print IR")
    p_compile.add_argument("file")
    p_compile.add_argument("--no-opt", action="store_true", help="skip passes")

    p_run = sub.add_parser("run", help="one golden run of a workload")
    p_run.add_argument("workload")
    p_run.add_argument("--input", type=int, default=1, choices=[1, 2, 3, 4])
    p_run.add_argument(
        "--block-profile",
        action="store_true",
        help="attribute wall time and cycles per basic block (timing "
        "wrappers perturb wall numbers, never simulated state)",
    )
    p_run.add_argument(
        "--top", type=int, default=20, help="hot blocks shown with --block-profile"
    )

    p_inject = sub.add_parser("inject", help="statistical fault injection")
    _add_campaign_args(p_inject)
    _add_jobs_arg(p_inject)
    p_inject.add_argument(
        "--progress",
        action="store_true",
        help="print live throughput / ETA to stderr",
    )
    p_inject.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint file; an interrupted campaign resumes from it",
    )
    _add_supervision_args(p_inject)
    p_inject.add_argument(
        "--verify-checkpoint",
        action="store_true",
        help="validate the --checkpoint file (CRCs + fingerprint), report "
        "recoverable vs. lost trials, and exit without injecting (needs "
        "--checkpoint)",
    )
    p_inject.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        type=_checked("validate_chaos_spec"),
        help="failure-injection drill for the harness itself: "
        "kill@IDX[!] and hang@IDX:SECONDS events, comma-separated "
        "(e.g. 'kill@7,hang@12:3'); results must stay identical; "
        "a malformed spec, or one with a single job, is rejected before "
        "the campaign starts",
    )
    p_inject.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="emit a Chrome trace-event file of the campaign (phases, "
        "per-worker trial spans, recovery events); opens in Perfetto",
    )
    p_inject.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="dump the campaign's metrics registry as JSON ('-' = stdout; "
        "status lines then move to stderr)",
    )
    p_inject.add_argument(
        "--heatmap",
        metavar="PATH",
        default=None,
        help="write the per-fault-site outcome heatmap joined with the "
        "coverage prover's static verdicts ('-' = stdout)",
    )
    _add_quiet_arg(p_inject)

    p_protect = sub.add_parser("protect", help="run the IPAS pipeline")
    p_protect.add_argument("workload")
    _add_scale_args(p_protect)
    _add_jobs_arg(p_protect)
    _add_supervision_args(p_protect)
    _add_quiet_arg(p_protect)

    p_eval = sub.add_parser("evaluate", help="full technique comparison")
    p_eval.add_argument("workload")
    _add_scale_args(p_eval)
    _add_jobs_arg(p_eval)
    _add_supervision_args(p_eval)

    p_report = sub.add_parser(
        "report", help="render an observability artifact (metrics/heatmap/trace)"
    )
    p_report.add_argument("path", help="artifact file written by inject")
    p_report.add_argument("--format", choices=["text", "json"], default="text")
    p_report.add_argument(
        "--top", type=int, default=30, help="heatmap rows shown in text output"
    )
    p_report.add_argument(
        "--validate",
        action="store_true",
        help="for traces: exit 1 unless every event parses and spans nest",
    )

    p_analyze = sub.add_parser(
        "analyze", help="static SOC-risk scores and IR diagnostics (no injection)"
    )
    p_analyze.add_argument("target", help="workload name or .scil file path")
    p_analyze.add_argument("--format", choices=["text", "json"], default="text")
    p_analyze.add_argument(
        "--risk-threshold",
        type=float,
        default=0.7,
        help="static risk at which unprotected instructions are flagged",
    )
    p_analyze.add_argument(
        "--top", type=int, default=10, help="risk rows shown in text output"
    )
    p_analyze.add_argument(
        "--debug-passes",
        action="store_true",
        help="re-run the optimization pipeline with per-pass verifier+lint checkpoints",
    )
    p_analyze.add_argument("--no-opt", action="store_true", help="skip passes")
    p_analyze.add_argument(
        "--coverage",
        action="store_true",
        help="run the protection-coverage prover and report the static "
        "DETECTED/MASKED/ESCAPES verdict for every fault site",
    )
    p_analyze.add_argument(
        "--protect",
        choices=["none", "full"],
        default="none",
        help="analyze the clean module (default) or one protected by full "
        "duplication, so coverage and check lints see the protected IR",
    )
    p_analyze.add_argument(
        "--fail-on",
        choices=["error", "warning"],
        default="error",
        help="finding severity that makes the exit status 1 (default: "
        "error); exit 0 = clean, 1 = findings at/above threshold, "
        "2 = target failed to load",
    )

    p_serve = sub.add_parser(
        "serve", help="run a campaign-service coordinator (localhost sockets)"
    )
    p_serve.add_argument(
        "--journal",
        metavar="DIR",
        required=True,
        help="durable job-journal directory; a restarted coordinator "
        "resumes every in-flight campaign recorded here",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="listen port (default: 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port here (atomically, after the socket "
        "binds) so clients and workers can discover an ephemeral port",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker subprocesses to spawn alongside the coordinator "
        "(default: 0 — serve existing workers, or degrade to in-process "
        "serial execution when none connect)",
    )
    p_serve.add_argument(
        "--chunk",
        type=int,
        default=8,
        metavar="N",
        help="trials per lease (default: 8)",
    )
    p_serve.add_argument(
        "--lease-timeout",
        type=_checked("validate_seconds", float),
        default=15.0,
        metavar="SECONDS",
        help="heartbeat deadline before a lease's trials are requeued "
        "(default: 15)",
    )
    p_serve.add_argument(
        "--solo-grace",
        type=_checked("validate_seconds", float),
        default=0.75,
        metavar="SECONDS",
        help="how long to wait for a worker before the coordinator runs "
        "trials itself (default: 0.75)",
    )
    p_serve.add_argument(
        "--no-solo",
        action="store_true",
        help="never execute trials in-process; jobs wait for workers",
    )
    p_serve.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        type=_checked("validate_service_chaos_spec"),
        help="coordinator/network chaos drill: kill@N, drop-ack@N, "
        "delay@N:SECONDS, reset@N events, comma-separated; fire-once "
        "state persists in the journal so a restart does not re-fire",
    )
    p_serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="emit a Chrome trace of the coordinator lane (job lifecycle, "
        "lease churn, chaos events)",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="dump the service metrics registry as JSON on shutdown "
        "('-' = stdout)",
    )
    _add_quiet_arg(p_serve)

    p_worker = sub.add_parser(
        "worker", help="run one socket worker against a coordinator"
    )
    _add_connect_args(p_worker)
    p_worker.add_argument(
        "--idle-exit",
        type=_checked("validate_seconds", float),
        default=None,
        metavar="SECONDS",
        help="exit 0 after this long with nothing to lease (default: "
        "idle forever)",
    )
    _add_quiet_arg(p_worker)

    p_submit = sub.add_parser(
        "submit", help="submit a campaign to a coordinator and wait"
    )
    _add_campaign_args(p_submit)
    _add_connect_args(p_submit)
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return instead of streaming progress "
        "(resubmitting the same spec later attaches to the same job)",
    )
    p_submit.add_argument(
        "--progress", action="store_true", help="print per-commit progress lines"
    )
    _add_quiet_arg(p_submit)

    p_status = sub.add_parser("status", help="show a coordinator's jobs")
    p_status.add_argument("job", nargs="?", default=None, help="job id (fingerprint)")
    _add_connect_args(p_status)
    p_status.add_argument("--json", action="store_true", help="raw JSON output")
    p_status.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the coordinator to shut down gracefully instead",
    )

    return parser


COMMANDS = {
    "list": cmd_list,
    "compile": cmd_compile,
    "run": cmd_run,
    "inject": cmd_inject,
    "protect": cmd_protect,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "submit": cmd_submit,
    "status": cmd_status,
}


def _refuse_inject_flags(args) -> None:
    """Refuse ``inject`` flags that would silently do nothing, naming the
    flag; the spec-level refusals are ``repro.faults.spec.REFUSALS``."""
    from .faults import resolve_jobs

    if args.chaos and resolve_jobs(args.jobs) == 1:
        raise ValueError(
            "--chaos drills the worker pool, which one job never starts: "
            "add --jobs 2 or more"
        )
    if args.verify_checkpoint and not args.checkpoint:
        raise ValueError("--verify-checkpoint requires --checkpoint PATH")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("inject", "submit"):
        from .faults import CampaignSpec

        try:
            args.spec = CampaignSpec.from_args(args)
            if args.command == "inject":
                _refuse_inject_flags(args)
        except ValueError as exc:  # names the bad key or flag
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # e.g. `repro report metrics.json | head`: the consumer closed the
        # pipe — not an error.  Point stdout at devnull so the interpreter's
        # exit flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
