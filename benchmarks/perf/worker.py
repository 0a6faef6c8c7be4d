"""One workload of the campaign-engine benchmark, in its own process.

``run.py`` starts this file once per workload, with the checkout's
``src`` on ``PYTHONPATH``, and reads the JSON it writes to ``--result``.
The child drives only public API: ``Workload.compile``,
``repro.protect.duplicate_instructions``, ``Workload.make_interpreter``,
and ``Campaign(...)`` with ``.prepare()``, ``.ensure_ladder()``,
``.sample_trials()`` and ``.run()``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import (
    CALIBRATION_SLICE,
    REPEATS,
    ROOT,
    SMOKE_TRIALS,
    SPOT_CHECKS,
    TRACED_REPEATS,
    WORKLOADS,
    Spec,
    calibrate,
    load_reference,
    trials_per_repeat,
)

import repro
from repro import protect
from repro.faults import (
    Campaign,
    CampaignCheckpoint,
    FaultSite,
    Outcome,
    injectable_instructions,
    trial_entry,
)
from repro.protect import FullDuplicationSelector
from repro.workloads import get_workload

import tracing

perf = time.perf_counter


def _no_span(name):
    return nullcontext()


class Timeline:
    """Wall time cut into segments, each host-adjusted by the calibration
    samples taken on either side of it.

    On the reference host (a 2-vCPU VM) the speed swings by about 40%
    within a second, each vCPU flipping between two states, so a loop
    before and after a whole repeat cannot follow it: :meth:`mark` ends a segment and runs a short calibration
    slice, and every segment is scaled by ``host_mops / host_mops_ref``
    with ``host_mops`` the mean of its two neighbouring samples.  The full
    calibration loop opens and closes the timeline.
    """

    def __init__(self, host_ref: float, span=_no_span):
        self.host_ref = host_ref
        self.span = span
        self.mops = [calibrate()]
        self.raw = []  # (seconds, index of the sample before the segment)
        self.adjusted = []
        self._last = perf()

    def mark(self) -> None:
        self.raw.append((perf() - self._last, len(self.mops) - 1))
        with self.span("bench.calibrate"):
            self.mops.append(calibrate(CALIBRATION_SLICE))
        self._last = perf()

    def close(self) -> None:
        self.raw.append((perf() - self._last, len(self.mops) - 1))
        self.mops.append(calibrate())
        self.adjusted = [
            seconds * (self.mops[k] + self.mops[k + 1]) / (2.0 * self.host_ref)
            for seconds, k in self.raw
        ]


def build(spec: Spec, workload, mark=lambda: None):
    """Compile, protect, build the interpreter, run the golden run and
    (warm) capture the ladder: everything a campaign needs before its
    plan.  ``mark`` is called after each step."""
    module = workload.compile()
    mark()
    if spec.protect:
        protect.duplicate_instructions(module, FullDuplicationSelector().select(module))
        mark()
    interp = workload.make_interpreter(spec.input_id, module=module)
    mark()
    campaign = Campaign(
        interp,
        verifier=workload.verifier(),
        entry=workload.entry,
        budget_factor=workload.budget_factor,
        warm_start=spec.warm,
        fault_model="transient-1bit",
    )
    campaign.prepare()
    mark()
    rungs = 0
    if spec.warm:
        rungs = len(campaign.ensure_ladder())
        mark()
    return campaign, rungs


def entries_of(campaign, result):
    """The campaign's ``trial_entry`` records, in trial order."""
    index = {
        id(inst): k
        for k, inst in enumerate(injectable_instructions(campaign.interp.module))
    }
    return [
        trial_entry(i, record.site, index[id(record.instruction)], record)
        for i, record in enumerate(result.records)
    ]


def digest_of(entries) -> str:
    h = hashlib.sha256()
    for entry in entries:
        h.update(json.dumps(entry, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def checkpoint_matches(path: str, campaign, trials: int, seed: int, entries) -> bool:
    """The durable checkpoint holds exactly the in-memory records."""
    saved = CampaignCheckpoint(
        path, campaign.fingerprint(trials, seed), trials, seed
    ).load(strict=True)

    def key(entry):
        return {k: v for k, v in entry.items() if k not in ("crc", "site_index")}

    return len(saved) == trials and all(
        key(saved.get(i, {})) == key(entry) for i, entry in enumerate(entries)
    )


def spot_check(reference, entries, seed: int) -> bool:
    """Re-run a few trials on a fresh cold serial in-process campaign.

    Warm, pooled and checkpointed campaigns must reproduce their cold
    serial twins record for record; this holds the benchmark to it for
    any seed, pinned or not.
    """
    sites = injectable_instructions(reference.interp.module)
    picks = random.Random(seed).sample(range(len(entries)), min(SPOT_CHECKS, len(entries)))
    for i in picks:
        entry = entries[i]
        k = entry["site_index"]
        record = reference.run_site(
            FaultSite(sites[k], entry["occurrence"], entry["bit"])
        )
        if trial_entry(i, record.site, k, record) != entry:
            return False
    return True


def reset_peak_rss() -> None:
    """Restart the peak-RSS count at the current RSS, so ``ru_maxrss``
    gives the peak of what follows (Linux; elsewhere it stays process-wide)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def run_pass(spec: Spec, workload, trials: int, seed: int, jobs: int, workdir: str,
             host_ref: float, tracer=None):
    """Set up and run one campaign; returns ``(info, entries)``."""
    span = tracer.span if tracer is not None else _no_span
    # drop the previous pass's campaign before its peak is counted
    gc.collect()
    reset_peak_rss()
    checkpoint = None
    if spec.checkpoint:
        checkpoint = os.path.join(workdir, "campaign.ckpt")
        for stale in (checkpoint, checkpoint + ".tmp"):
            if os.path.exists(stale):
                os.remove(stale)

    timeline = Timeline(host_ref, span)
    with span("bench.setup"):
        campaign, rungs = build(spec, workload, timeline.mark)
        campaign.sample_trials(trials, seed)
        timeline.mark()
    steps = len(timeline.raw)
    hangs = []  # timeline segments that ended with a hang trial

    def on_trial(index, record):
        timeline.mark()
        if record.outcome is Outcome.HANG:
            hangs.append(len(timeline.raw) - 1)

    with span("bench.run"):
        result = campaign.run(
            trials, seed=seed, n_jobs=jobs, checkpoint_path=checkpoint,
            on_trial=on_trial,
        )
    timeline.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    entries = entries_of(campaign, result)
    counts = result.counts.as_counts_dict()
    stats = result.stats
    info = {
        "seed": seed,
        "trials": trials,
        "jobs": jobs,
        "host_mops": (timeline.mops[0] + timeline.mops[-1]) / 2.0,
        "setup_s": sum(seconds for seconds, _ in timeline.raw[:steps]),
        "run_s": sum(seconds for seconds, _ in timeline.raw[steps:]),
        "setup_adj_s": sum(timeline.adjusted[:steps]),
        "run_adj_s": sum(timeline.adjusted[steps:]),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest_of(entries),
        "outcomes": counts,
        "trial_failures": counts.get(Outcome.TRIAL_FAILURE.value, 0),
        "cycles": sum(record.cycles for record in result.records),
        "hang_adj_s": 0.0,
        "hang_cycles": 0,
        "rungs": rungs,
        "utilization": stats.utilization,
        "retries": stats.retries,
        "worker_deaths": stats.worker_deaths,
        "golden_resyncs": stats.golden_resyncs,
        "warm_cycles_saved": stats.warm_cycles_saved,
        "checkpoint_ok": None,
        "checkpoint_bytes": 0,
    }
    if jobs == 1:
        # In a serial campaign the segment before a callback is that trial.
        info["hang_adj_s"] = sum(timeline.adjusted[k] for k in hangs)
        info["hang_cycles"] = sum(
            record.cycles for record in result.records if record.outcome is Outcome.HANG
        )
    if checkpoint is not None:
        info["checkpoint_ok"] = checkpoint_matches(checkpoint, campaign, trials, seed, entries)
        info["checkpoint_bytes"] = os.path.getsize(checkpoint)
    return info, entries


def check(info, entries, reference, pinned) -> bool:
    """Correctness of one pass: no quarantined trial, the cold spot-check,
    the checkpoint, and the pinned digest when this (trials, seed) has one."""
    expected = pinned.get(f"{info['trials']}:{info['seed']}")
    info["pinned_ok"] = None if expected is None else info["digest"] == expected
    info["spot_ok"] = spot_check(reference, entries, info["seed"])
    return (
        info["trial_failures"] == 0
        and info["spot_ok"]
        and info["checkpoint_ok"] is not False
        and info["pinned_ok"] is not False
    )


def untraced(spec, workload, seed, trials, repeats, workdir, reference, pinned, ref):
    """The end-to-end metrics: medians over ``repeats`` campaigns.

    Throughput is normalised to the workload's reference trial mix: a
    repeat's rate is its simulated cycles per host-adjusted second over
    the reference cycles per trial, so a plan that happens to draw longer
    trials does not read as a slower engine.  Serial campaigns leave out
    the trials that ran into the cycle budget: a hang costs the budget,
    not engine speed, and the 0-3 of them a seed draws would otherwise
    set the spread.
    """
    runs = []
    samples = {"trials_per_s": [], "time_to_result_s": [], "setup_s": [], "peak_rss_mb": []}
    for r in range(repeats):
        info, entries = run_pass(
            spec, workload, trials, seed + r, spec.jobs, workdir, ref["host_mops_ref"]
        )
        info["ok"] = check(info, entries, reference, pinned)
        work = (info["cycles"] - info["hang_cycles"]) / ref["cycles_per_trial"]
        rate = work / (info["run_adj_s"] - info["hang_adj_s"])
        samples["trials_per_s"].append(rate)
        samples["time_to_result_s"].append(info["setup_adj_s"] + trials / rate)
        samples["setup_s"].append(info["setup_adj_s"])
        samples["peak_rss_mb"].append(info["peak_rss_mb"])
        runs.append(info)
    metrics = {
        name: {"value": statistics.median(values), "samples": values}
        for name, values in samples.items()
    }
    return runs, metrics


def traced(spec, workload, seed, trials, repeats, workdir, reference, pinned, ref, origin):
    """The per-layer metrics: each repeat pairs an untraced pass with a
    traced one (a pooled workload adds a traced single-job pass)."""
    runs = []
    layers = []
    events = []
    restored = True
    passes = [(False, spec.jobs), (True, spec.jobs)]
    if spec.jobs > 1:
        passes.append((True, 1))
    for r in range(repeats):
        repeat = []
        for with_trace, jobs in passes:
            tracer = None
            if with_trace:
                tracer = tracing.Tracer()
                tracing.install(tracer, workload.verifier())
            try:
                info, entries = run_pass(
                    spec, workload, trials, seed + r, jobs, workdir,
                    ref["host_mops_ref"], tracer,
                )
            finally:
                if tracer is not None:
                    restored = tracer.restore() and restored
            info["traced"] = with_trace
            info["ok"] = check(info, entries, reference, pinned)
            info["rate"] = trials / info["run_adj_s"]
            if tracer is not None:
                scale = info["run_adj_s"] / info["run_s"]
                info["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, trials, scale)
                events += tracing.chrome_events(
                    tracer.spans, 0, len(runs) + len(repeat), origin
                )
            repeat.append(info)
        # traced, untraced, pooled and single-job passes: one set of records
        same = len({info["digest"] for info in repeat}) == 1
        for info in repeat:
            info["ok"] = info["ok"] and same
        untraced_pass, traced_pass = repeat[0], repeat[1]
        values = traced_pass.pop("layers")
        if spec.jobs > 1:
            single = repeat[2].pop("layers")
            values.update({name: single[name] for name in tracing.TRIAL_LAYERS})
        values.update(host_layers(traced_pass, trials))
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - traced_pass["rate"] / untraced_pass["rate"]
        )
        values["supervisor.scaling_efficiency"] = (
            traced_pass["rate"] / (spec.jobs * repeat[2]["rate"])
            if spec.jobs > 1 else 0.0
        )
        layers.append(values)
        runs += repeat
    merged = {
        name: statistics.mean(values[name] for values in layers) for name in layers[0]
    }
    return runs, merged, events, restored


def host_layers(info, trials):
    """Per-layer metrics read from the campaign's own statistics."""
    counts = info["outcomes"]
    values = {
        f"outcome.{name}_frac": counts.get(name, 0) / trials
        for name in ("crash", "masked", "soc", "detected", "hang")
    }
    values.update({
        "warm.rungs": info["rungs"],
        "warm.resync_frac": info["golden_resyncs"] / trials,
        "warm.prefix_saved_frac": (
            info["warm_cycles_saved"] / info["cycles"] if info["cycles"] else 0.0
        ),
        "checkpoint.bytes_per_trial": info["checkpoint_bytes"] / trials,
        "supervisor.utilization": info["utilization"],
        "supervisor.retries": info["retries"],
        "supervisor.worker_deaths": info["worker_deaths"],
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    origin = perf()

    source = Path(repro.__file__).resolve().parents[1]
    if source != ROOT / "src":
        print(f"repro was imported from {source}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    reference_data = load_reference()
    ref = {
        "host_mops_ref": reference_data["host_mops_ref"],
        "cycles_per_trial": reference_data["cycles_per_trial"][args.workload],
    }
    pinned = reference_data["digests"].get(args.workload, {})
    workload = get_workload(spec.workload)
    # the spot-check reference: same module and input, cold, serial
    reference, _ = build(spec._replace(warm=False), workload)

    repeats = 1 if args.smoke else (TRACED_REPEATS if args.trace else REPEATS)
    passes = 1.0
    if args.trace:
        # untraced + traced; a pooled workload adds a single-job pass that
        # takes about as long as both pooled ones
        passes = 4.0 if spec.jobs > 1 else 2.0
    trials = (
        SMOKE_TRIALS if args.smoke
        else trials_per_repeat(spec, args.seconds, repeats, passes)
    )
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "trials": trials, "repeats": repeats}
    restored = True
    if args.trace:
        runs, layers, events, restored = traced(
            spec, workload, args.seed, trials, repeats, args.workdir,
            reference, pinned, ref, origin,
        )
        result.update(layers=layers, trace_events=events, wrappers_restored=restored)
    else:
        runs, metrics = untraced(
            spec, workload, args.seed, trials, repeats, args.workdir,
            reference, pinned, ref,
        )
        result["metrics"] = metrics
    failed = sum(
        info["trials"] if not info["ok"] else info["trial_failures"] for info in runs
    )
    outcomes = {}
    for info in runs:
        for name, count in info["outcomes"].items():
            outcomes[name] = outcomes.get(name, 0) + count
    result.update(
        runs=runs,
        outcomes=outcomes,
        attempted=sum(info["trials"] for info in runs),
        failed=failed,
        correct=failed == 0 and restored,
        reference=ref,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
