"""Span tracing for the benchmark's traced run.

:class:`Tracer` swaps timing wrappers onto public callables of ``repro``
at class or module level, records one span per call in memory (name,
start, end, parent span, trial index), and puts every original back in
:meth:`Tracer.restore`.  :func:`layer_metrics` turns one pass's spans
into the per-layer metrics of ``BENCHMARK.json``; :func:`chrome_events`
exports them as Chrome trace events.

Spans opened inside forked pool workers stay in the worker and are lost,
so a pooled pass only reports parent-side layers.  Timing splits inside
``Interpreter.run`` (restore, dispatch, resync) are not spanned.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# span layout (a list, so a wrapper fills it in place)
ID, NAME, START, END, PARENT, TRIAL, ARGS = range(7)

#: direct children of ``Campaign.run`` that are not trial delivery
_NOT_DELIVERY = {
    "bench.calibrate", "Campaign.run_site", "Campaign.sample_trials", "Campaign.prepare",
    "Campaign.ensure_ladder", "SnapshotLadder.plan_site",
    "sanitize_records", "run_supervised",
}

#: per-trial layers measured inside the trial; a pooled pass runs trials
#: in its workers, so these come from its single-job pass instead
TRIAL_LAYERS = (
    "campaign.trial_ms", "campaign.trial_p50_ms", "campaign.trial_p95_ms",
    "campaign.trial_ms.crash", "campaign.trial_ms.masked",
    "campaign.trial_ms.soc", "campaign.trial_ms.detected",
    "interp.run_self_ms", "interp.mcycles_per_s", "interp.reset_ms",
    "warm.plan_ms", "warm.plan_calls_per_trial",
    "campaign.classify_ms", "verify.check_ms",
)


class Tracer:
    """In-memory span recorder over swapped-in timing wrappers."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        #: ``id(site)`` -> trial index, from the last sampled trial plan
        self._trial_of: Dict[int, int] = {}

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, trial: Optional[int] = None) -> list:
        parent = self._stack[-1] if self._stack else None
        if trial is None and parent is not None:
            trial = parent[TRIAL]
        span = [
            len(self.spans), name, 0.0, 0.0,
            parent[ID] if parent is not None else None, trial, None,
        ]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers -----------------------------------------------------------

    def wrap(
        self, owner, attr: str, name: str,
        note: Optional[Callable] = None, site_arg: Optional[int] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``note(span, args, result)`` may attach data to the span;
        ``site_arg`` names the positional argument holding a fault site,
        whose trial index tags the span and everything nested in it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            trial = None
            if site_arg is not None:
                trial = tracer._trial_of.get(id(args[site_arg]))
            span = tracer._open(name, trial)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self._swap(owner, attr, timed)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._swap(owner, attr, counted)

    def _swap(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, replacement)

    def note_plan(self, span, args, kwargs, sites) -> None:
        self._trial_of = {id(site): i for i, site in enumerate(sites)}

    def restore(self) -> bool:
        """Put every original back; True when each is verifiably in place."""
        patches, self._patches = self._patches, []
        for owner, attr, original, had_own in reversed(patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return all(
            (vars(owner).get(attr) is original) if had_own
            else attr not in vars(owner)
            for owner, attr, original, had_own in patches
        )


def _note_outcome(span, args, kwargs, record) -> None:
    span[ARGS] = {"outcome": record.outcome.value}


def _note_run(span, args, kwargs, result) -> None:
    span[ARGS] = {"cycles": result.cycles, "cold": kwargs.get("warm") is None}


def install(tracer: Tracer, verifier) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro import protect
    from repro.faults import parallel
    from repro.faults.campaign import Campaign
    from repro.faults.parallel import CampaignCheckpoint, CampaignStats
    from repro.interp.interpreter import Interpreter
    from repro.recover.warm import SnapshotLadder
    from repro.workloads.base import Workload

    def owner_of(cls, attr):
        return next(c for c in cls.__mro__ if attr in vars(c))

    w = tracer.wrap
    w(Workload, "compile", "Workload.compile")
    w(Workload, "make_interpreter", "Workload.make_interpreter")
    w(protect, "duplicate_instructions", "duplicate_instructions")
    w(Campaign, "prepare", "Campaign.prepare")
    w(Campaign, "ensure_ladder", "Campaign.ensure_ladder")
    w(Campaign, "sample_trials", "Campaign.sample_trials", note=tracer.note_plan)
    w(Campaign, "run", "Campaign.run")
    w(Campaign, "run_site", "Campaign.run_site", note=_note_outcome, site_arg=1)
    w(Campaign, "classify", "Campaign.classify")
    w(owner_of(type(verifier), "check"), "check", "OutputVerifier.check")
    w(Interpreter, "run", "Interpreter.run", note=_note_run)
    w(Interpreter, "reset", "Interpreter.reset")
    w(SnapshotLadder, "plan_site", "SnapshotLadder.plan_site")
    w(CampaignStats, "record", "CampaignStats.record")
    w(CampaignCheckpoint, "append", "CampaignCheckpoint.append")
    w(CampaignCheckpoint, "flush", "CampaignCheckpoint.flush")
    w(parallel, "sanitize_records", "sanitize_records")
    w(parallel, "run_supervised", "run_supervised")
    tracer.count(os, "fsync", "os.fsync")


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(spans: List[list], counts: Dict[str, int], trials: int, scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (one set-up plus one campaign).

    Times are multiplied by ``scale`` (the pass's host adjustment).  Set-up
    layers are per call; trial layers are per trial; ``sanitize.ms`` is per
    campaign.
    """
    child = [0.0] * len(spans)
    phase: List[str] = []
    for span in spans:
        parent = span[PARENT]
        phase.append(span[NAME] if parent is None else phase[parent])
        if parent is not None:
            child[parent] += span[END] - span[START]

    def dur(span) -> float:
        return (span[END] - span[START]) * scale

    def own(span) -> float:
        return (span[END] - span[START] - child[span[ID]]) * scale

    setup_dur: Dict[str, float] = {}
    setup_own: Dict[str, float] = {}
    run_dur: Dict[str, float] = {}
    run_own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    by_outcome: Dict[str, List[float]] = {}
    cold_cycles = 0
    cold_seconds = 0.0
    delivery = 0.0
    run_span = None
    for span in spans:
        if span[PARENT] is None:
            continue  # the benchmark's own phase spans
        name = span[NAME]
        parent_name = spans[span[PARENT]][NAME]
        if phase[span[ID]] == "bench.setup":
            if parent_name == "bench.setup":
                setup_dur[name] = setup_dur.get(name, 0.0) + dur(span)
                setup_own[name] = setup_own.get(name, 0.0) + own(span)
                calls[name] = calls.get(name, 0) + 1
            continue
        run_dur[name] = run_dur.get(name, 0.0) + dur(span)
        run_own[name] = run_own.get(name, 0.0) + own(span)
        calls["run:" + name] = calls.get("run:" + name, 0) + 1
        if name == "Campaign.run":
            run_span = span
            delivery += dur(span)
        elif parent_name == "Campaign.run" and name in _NOT_DELIVERY:
            delivery -= dur(span)
        elif parent_name == "run_supervised" and name != "bench.calibrate":
            delivery += dur(span)  # the pool delivers inside the supervisor
        if name == "Campaign.run_site":
            by_outcome.setdefault(span[ARGS]["outcome"], []).append(dur(span))
        elif name == "Interpreter.run" and span[ARGS]["cold"]:
            cold_cycles += span[ARGS]["cycles"]
            cold_seconds += own(span)

    def per_call(name: str) -> float:
        n = calls.get(name, 0)
        return 1000.0 * setup_dur.get(name, 0.0) / n if n else 0.0

    def per_trial(table: Dict[str, float], name: str) -> float:
        return 1000.0 * table.get(name, 0.0) / trials

    def mean_ms(values: List[float]) -> float:
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def percentile_ms(values: List[float], q: int) -> float:
        if len(values) < 2:
            return mean_ms(values)
        return 1000.0 * statistics.quantiles(values, n=100)[q - 1]

    trial_times = sum(by_outcome.values(), [])

    build_calls = calls.get("Workload.make_interpreter", 0)
    metrics = {
        "frontend.compile_ms": per_call("Workload.compile"),
        "protect.duplicate_ms": per_call("duplicate_instructions"),
        "interp.build_ms": (
            1000.0 * setup_own.get("Workload.make_interpreter", 0.0) / build_calls
            if build_calls else 0.0
        ),
        "campaign.golden_ms": per_call("Campaign.prepare"),
        "warm.ladder_ms": per_call("Campaign.ensure_ladder"),
        "faults.plan_ms": per_call("Campaign.sample_trials"),
        "campaign.trial_ms": mean_ms(trial_times),
        "campaign.trial_p50_ms": percentile_ms(trial_times, 50),
        "campaign.trial_p95_ms": percentile_ms(trial_times, 95),
        "interp.run_self_ms": per_trial(run_own, "Interpreter.run"),
        "interp.mcycles_per_s": (
            cold_cycles / cold_seconds / 1e6 if cold_seconds else 0.0
        ),
        "interp.reset_ms": per_trial(run_dur, "Interpreter.reset"),
        "warm.plan_ms": per_trial(run_dur, "SnapshotLadder.plan_site"),
        "warm.plan_calls_per_trial": (
            calls.get("run:SnapshotLadder.plan_site", 0) / trials
        ),
        "campaign.classify_ms": per_trial(run_own, "Campaign.classify"),
        "verify.check_ms": per_trial(run_dur, "OutputVerifier.check"),
        "engine.deliver_ms": 1000.0 * delivery / trials,
        "stats.record_ms": per_trial(run_dur, "CampaignStats.record"),
        "checkpoint.append_ms": per_trial(run_own, "CampaignCheckpoint.append"),
        "checkpoint.flush_ms": per_trial(run_dur, "CampaignCheckpoint.flush"),
        "checkpoint.fsyncs_per_trial": counts.get("os.fsync", 0) / trials,
        "sanitize.ms": 1000.0 * run_dur.get("sanitize_records", 0.0),
        "supervisor.dispatch_ms": per_trial(run_own, "run_supervised"),
        # the benchmark's calibration slices run inside Campaign.run but
        # are no part of it
        "layers.unattributed_frac": (
            own(run_span) / (dur(run_span) - run_dur.get("bench.calibrate", 0.0))
            if run_span is not None else 0.0
        ),
    }
    for outcome in ("crash", "masked", "soc", "detected"):
        metrics["campaign.trial_ms." + outcome] = mean_ms(by_outcome.get(outcome, []))
    return metrics


def chrome_events(spans: List[list], pid: int, tid: int, origin: float) -> List[Dict]:
    """Spans as Chrome trace "complete" events (microseconds from ``origin``)."""
    events = []
    for span in spans:
        args = {"id": span[ID], "parent": span[PARENT], "trial": span[TRIAL]}
        args.update(span[ARGS] or {})
        events.append({
            "name": span[NAME], "ph": "X", "pid": pid, "tid": tid,
            "ts": round((span[START] - origin) * 1e6, 1),
            "dur": round((span[END] - span[START]) * 1e6, 1),
            "args": {k: v for k, v in args.items() if v is not None},
        })
    return events
