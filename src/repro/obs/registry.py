"""Metrics registry: the one aggregation surface for campaign telemetry.

Before this module, runtime evidence was scattered — ``CampaignStats``
attribute counters, ``RecoveryTelemetry`` tuples, warm-start ledger fields —
each with its own ad-hoc merge rules.  The registry unifies them behind a
Prometheus-shaped model:

* **Counters** — monotonically increasing totals (trials, rollbacks,
  worker deaths).
* **Gauges** — last/extreme observations with an explicit merge mode
  (``max``, ``min``, ``sum``, ``last``), e.g. worst-case trial latency.
* **Histograms** — fixed bucket boundaries declared up front, so two
  histograms of the same metric always merge bucket-by-bucket.

Every metric name must be *declared* in the module-level :data:`CATALOG`
before use — an undeclared name raises immediately, which keeps the name
space auditable (``docs/observability.md`` is tested against the catalog).
Metrics carry optional labels (e.g. ``outcome="soc"``); each distinct
label set is an independent sample.

**Deterministic merge.**  :meth:`MetricsRegistry.merge` is associative and
commutative for integer-valued metrics: summing counters and histogram
buckets in any grouping yields bit-identical totals, so a campaign
aggregated at ``jobs=1``, sharded over N workers, or summed across MPI
ranks reports the same numbers.  Metrics derived from wall clocks
(latencies, busy time, backoff) are declared ``wall=True`` and excluded
from :meth:`MetricsRegistry.deterministic_snapshot`, the view the
determinism tests compare.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "declare",
    "render_metrics_text",
    "CYCLE_BUCKETS",
    "LATENCY_BUCKETS_MS",
]

#: trial-latency histogram bucket upper bounds, milliseconds (last open).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)

#: trial-cycle histogram bucket upper bounds (last open).  Cycle counts are
#: deterministic model outputs, so this histogram is bit-identical at any
#: worker count — the latency histogram's deterministic twin.
CYCLE_BUCKETS: Tuple[float, ...] = (
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8,
)

_KINDS = ("counter", "gauge", "histogram")
_GAUGE_MERGES = ("max", "min", "sum", "last")


class MetricSpec:
    """Declared identity of one metric name."""

    __slots__ = (
        "name", "kind", "help", "unit", "wall", "buckets", "gauge_merge",
        "deterministic",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        unit: str = "",
        wall: bool = False,
        buckets: Optional[Tuple[float, ...]] = None,
        gauge_merge: str = "max",
        deterministic: Optional[bool] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"metric kind must be one of {_KINDS}, got {kind!r}")
        if kind == "histogram" and not buckets:
            raise ValueError(f"histogram {name!r} needs bucket boundaries")
        if gauge_merge not in _GAUGE_MERGES:
            raise ValueError(
                f"gauge_merge must be one of {_GAUGE_MERGES}, got {gauge_merge!r}"
            )
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        #: derived from a wall clock — real but nondeterministic; excluded
        #: from deterministic snapshots and merge-equality guarantees.
        self.wall = wall
        self.buckets = tuple(buckets) if buckets else None
        self.gauge_merge = gauge_merge
        #: a pure function of the campaign plan (same at any worker count
        #: and on any machine).  Defaults to ``not wall``; harness-health
        #: metrics pass an explicit ``False`` — they count real-world
        #: events (worker deaths, respawns), which no plan determines.
        self.deterministic = (not wall) if deterministic is None else deterministic

    def __repr__(self) -> str:
        return f"<MetricSpec {self.name} {self.kind}{' wall' if self.wall else ''}>"


#: every declarable metric name; the docs-sync test walks this.
CATALOG: Dict[str, MetricSpec] = {}


def declare(
    name: str,
    kind: str,
    help: str,
    unit: str = "",
    wall: bool = False,
    buckets: Optional[Tuple[float, ...]] = None,
    gauge_merge: str = "max",
    deterministic: Optional[bool] = None,
) -> str:
    """Register a metric name in the catalog; returns the name."""
    spec = MetricSpec(
        name, kind, help, unit=unit, wall=wall, buckets=buckets,
        gauge_merge=gauge_merge, deterministic=deterministic,
    )
    existing = CATALOG.get(name)
    if existing is not None and (
        existing.kind != kind or existing.buckets != spec.buckets
    ):
        raise ValueError(f"metric {name!r} already declared as {existing.kind}")
    CATALOG[name] = spec
    return name


class Counter:
    """Monotonic total.  ``value`` is writable for restore paths only."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.spec.name}={self.value}>"


class Gauge:
    """Point-in-time observation merged per its declared mode."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def observe_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.spec.name}={self.value}>"


class Histogram:
    """Fixed-boundary histogram: counts per bucket plus sum and count.

    ``counts`` has ``len(buckets) + 1`` entries; the last is the open
    overflow bucket.
    """

    __slots__ = ("spec", "counts", "total", "count")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        assert spec.buckets is not None
        self.counts: List[int] = [0] * (len(spec.buckets) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.spec.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.spec.name} n={self.count}>"


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """All instruments of one campaign (or one merged view of many).

    Instruments are created lazily on first touch; a name absent from
    :data:`CATALOG` raises ``KeyError`` so typos never create silent
    shadow metrics.
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        # (name, ((label, value), ...)) -> instrument
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}

    # -- instrument access -------------------------------------------------

    def _get(self, name: str, kind: str, labels: Dict[str, str]):
        key = (name, _labels_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            spec = CATALOG.get(name)
            if spec is None:
                raise KeyError(f"metric {name!r} is not declared in the catalog")
            if spec.kind != kind:
                raise TypeError(f"metric {name!r} is a {spec.kind}, not a {kind}")
            cls = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]
            inst = self._metrics[key] = cls(spec)
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(name, "histogram", labels)

    def value(self, name: str, **labels):
        """Current value (0 for untouched counters/gauges)."""
        inst = self._metrics.get((name, _labels_key(labels)))
        if inst is None:
            return 0
        return inst.value if not isinstance(inst, Histogram) else inst.count

    def samples(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], object]:
        """Every labeled instrument of one metric name."""
        return {
            labels: inst
            for (n, labels), inst in self._metrics.items()
            if n == name
        }

    # -- deterministic merge -----------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place; returns ``self``.

        Counters and histogram buckets add; gauges combine per their
        declared mode.  For integer-valued metrics the result is
        independent of merge order and grouping.
        """
        for (name, labels), inst in other._metrics.items():
            if isinstance(inst, Counter):
                self._get(name, "counter", dict(labels)).value += inst.value
            elif isinstance(inst, Gauge):
                fresh = (name, labels) not in self._metrics
                mine = self._get(name, "gauge", dict(labels))
                mode = inst.spec.gauge_merge
                if fresh:
                    mine.value = inst.value
                elif mode == "max":
                    mine.value = max(mine.value, inst.value)
                elif mode == "min":
                    mine.value = min(mine.value, inst.value)
                elif mode == "sum":
                    mine.value += inst.value
                else:  # last
                    mine.value = inst.value
            else:  # Histogram
                mine = self._get(name, "histogram", dict(labels))
                for i, c in enumerate(inst.counts):
                    mine.counts[i] += c
                mine.total += inst.total
                mine.count += inst.count
        return self

    # -- serialization -----------------------------------------------------

    def as_dict(self, deterministic_only: bool = False) -> Dict:
        """JSON-compatible snapshot, keys sorted for stable output.

        ``deterministic_only`` drops every metric not declared
        deterministic (wall clocks and harness-health event counts),
        leaving the view that must be bit-identical at any worker count.
        """
        out: Dict = {}
        for (name, labels), inst in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            spec = CATALOG[name]
            if deterministic_only and not spec.deterministic:
                continue
            entry = out.setdefault(
                name,
                {
                    "type": spec.kind,
                    "help": spec.help,
                    "unit": spec.unit,
                    "wall": spec.wall,
                    "samples": [],
                },
            )
            sample: Dict = {"labels": dict(labels)}
            if isinstance(inst, Histogram):
                sample["buckets"] = list(spec.buckets)
                sample["counts"] = list(inst.counts)
                sample["sum"] = inst.total
                sample["count"] = inst.count
            else:
                sample["value"] = inst.value
            entry["samples"].append(sample)
        return out

    def deterministic_snapshot(self) -> Dict:
        """The plan-determined view (wall-clock and harness metrics excluded)."""
        return self.as_dict(deterministic_only=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output.

        Unknown metric names are skipped (forward compatibility: a newer
        engine's checkpoint must still resume here).
        """
        reg = cls()
        for name, entry in data.items():
            spec = CATALOG.get(name)
            if spec is None or spec.kind != entry.get("type"):
                continue
            for sample in entry.get("samples", ()):
                labels = sample.get("labels", {})
                if spec.kind == "counter":
                    reg.counter(name, **labels).value = sample.get("value", 0)
                elif spec.kind == "gauge":
                    reg.gauge(name, **labels).value = sample.get("value", 0)
                else:
                    hist = reg.histogram(name, **labels)
                    counts = sample.get("counts", [])
                    if len(counts) == len(hist.counts):
                        hist.counts = list(counts)
                    hist.total = sample.get("sum", 0)
                    hist.count = sample.get("count", 0)
        return reg

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._metrics)} instruments>"


# -- the campaign metric catalog ----------------------------------------------
#
# Declared here, at import time, so CampaignStats and the docs-sync test see
# one authoritative name space.  Naming follows Prometheus conventions:
# ``ipas_`` prefix, ``_total`` suffix on counters, base units in the name.

# trial outcomes and throughput
declare(
    "ipas_trials_total", "counter",
    "Completed injection trials by outcome.", unit="trials",
)
declare(
    "ipas_trials_completed_total", "counter",
    "Trials executed by this engine (cumulative across resumed runs).",
    unit="trials", deterministic=False,
)
declare(
    "ipas_trials_resumed_total", "counter",
    "Trials restored from a checkpoint instead of executed.", unit="trials",
    deterministic=False,
)
declare(
    "ipas_trial_cycles", "histogram",
    "Simulated cycles per trial by outcome (deterministic cost model).",
    unit="cycles", buckets=CYCLE_BUCKETS,
)
declare(
    "ipas_trial_latency_ms", "histogram",
    "Wall-clock latency per trial by outcome.", unit="ms", wall=True,
    buckets=LATENCY_BUCKETS_MS,
)
declare(
    "ipas_trial_latency_seconds_max", "gauge",
    "Worst-case trial latency by outcome.", unit="seconds", wall=True,
    gauge_merge="max",
)
declare(
    "ipas_worker_busy_seconds_total", "counter",
    "Summed per-trial wall time across workers.", unit="seconds", wall=True,
)
declare(
    "ipas_campaign_elapsed_seconds_total", "counter",
    "Campaign wall time, summed across resumed runs.", unit="seconds",
    wall=True,
)

# harness health (supervisor)
declare(
    "ipas_worker_deaths_total", "counter",
    "Workers lost to crash or hang-kill.", deterministic=False,
)
declare(
    "ipas_worker_hangs_total", "counter",
    "Workers killed past their deadline.", deterministic=False,
)
declare(
    "ipas_worker_respawns_total", "counter",
    "Replacement workers forked.", deterministic=False,
)
declare(
    "ipas_trial_retries_total", "counter",
    "Re-dispatches of a failure's suspect trial.", deterministic=False,
)
declare(
    "ipas_trials_requeued_total", "counter",
    "Innocent chunk-mates returned to the queue after a worker failure.",
    deterministic=False,
)
declare(
    "ipas_trials_quarantined_total", "counter",
    "Trials delivered as TRIAL_FAILURE after exhausting retries.",
    deterministic=False,
)
declare(
    "ipas_backoff_seconds_total", "counter",
    "Respawn backoff delay accumulated.", unit="seconds", wall=True,
)
declare(
    "ipas_serial_fallback", "gauge",
    "1 when the pool collapsed into in-process execution.", gauge_merge="max",
    deterministic=False,
)

# recovery runtime (rollback re-execution)
declare(
    "ipas_recovery_snapshots_total", "counter",
    "Region snapshots captured across trials.",
)
declare(
    "ipas_recovery_rollbacks_total", "counter",
    "Rollback re-executions performed.",
)
declare(
    "ipas_recovery_reexec_cycles_total", "counter",
    "Cycles discarded and re-executed by rollbacks.", unit="cycles",
)
declare(
    "ipas_recovery_escalations_total", "counter",
    "Rollbacks refused because the escalation ladder was exhausted.",
)

# warm-start engine
declare(
    "ipas_warm_restores_total", "counter",
    "Trials started from a snapshot-ladder rung.",
)
declare(
    "ipas_warm_resyncs_total", "counter",
    "Trials finished early by golden resync.",
)
declare(
    "ipas_warm_cycles_saved_total", "counter",
    "Golden-prefix cycles skipped via ladder restores.", unit="cycles",
)

# campaign service (coordinator).  All non-deterministic: they count
# real-world scheduling events — connects, lease churn, crash recovery —
# which legitimately differ between otherwise bit-identical runs.
declare(
    "ipas_service_jobs_submitted_total", "counter",
    "New jobs accepted and journaled by the coordinator.",
    deterministic=False,
)
declare(
    "ipas_service_jobs_attached_total", "counter",
    "Duplicate submissions attached to an already-running job.",
    deterministic=False,
)
declare(
    "ipas_service_jobs_cached_total", "counter",
    "Duplicate submissions served from completed results.",
    deterministic=False,
)
declare(
    "ipas_service_jobs_completed_total", "counter",
    "Jobs that ran (or resumed) to completion.", deterministic=False,
)
declare(
    "ipas_service_jobs_recovered_total", "counter",
    "In-flight jobs resumed from the journal at coordinator restart.",
    deterministic=False,
)
declare(
    "ipas_service_trials_committed_total", "counter",
    "Trial results durably committed to a job checkpoint.",
    deterministic=False,
)
declare(
    "ipas_service_trials_resumed_total", "counter",
    "Trials restored from a job checkpoint instead of re-executed.",
    deterministic=False,
)
declare(
    "ipas_service_solo_trials_total", "counter",
    "Trials the coordinator executed in-process (no workers reachable).",
    deterministic=False,
)
declare(
    "ipas_service_leases_granted_total", "counter",
    "Trial-chunk leases handed to workers.", deterministic=False,
)
declare(
    "ipas_service_leases_expired_total", "counter",
    "Leases revoked past their heartbeat deadline.", deterministic=False,
)
declare(
    "ipas_service_leases_requeued_total", "counter",
    "Chunks returned to the queue after lease loss or worker disconnect.",
    deterministic=False,
)
declare(
    "ipas_service_acks_committed_total", "counter",
    "Worker acks accepted by the at-most-once commit path.",
    deterministic=False,
)
declare(
    "ipas_service_acks_discarded_total", "counter",
    "Stale or duplicate worker acks discarded without commit.",
    deterministic=False,
)
declare(
    "ipas_service_worker_connects_total", "counter",
    "Worker hellos accepted.", deterministic=False,
)
declare(
    "ipas_service_worker_disconnects_total", "counter",
    "Worker connections lost (EOF, reset, or shutdown).",
    deterministic=False,
)


def render_metrics_text(data: Dict) -> str:
    """Prometheus-exposition-style text for a registry snapshot dict.

    ``data`` is the ``metrics`` mapping produced by
    :meth:`MetricsRegistry.as_dict` (or loaded back from an
    ``ipas-metrics`` JSON artifact).  Histograms render as cumulative
    ``_bucket{le=...}`` lines plus ``_sum``/``_count``, counters and
    gauges as one line per label set.
    """
    lines: List[str] = []
    for name, metric in data.items():
        lines.append(f"# HELP {name} {metric.get('help', '')}")
        lines.append(f"# TYPE {name} {metric.get('type', '')}")
        for sample in metric.get("samples", []):
            labels = dict(sample.get("labels") or {})

            def label_str(extra=None):
                pairs = dict(labels)
                if extra:
                    pairs.update(extra)
                if not pairs:
                    return ""
                body = ",".join(f'{k}="{v}"' for k, v in sorted(pairs.items()))
                return "{" + body + "}"

            if metric.get("type") == "histogram":
                cumulative = 0
                bounds = list(sample.get("buckets", ())) + ["+Inf"]
                for bound, count in zip(bounds, sample.get("counts", ())):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{label_str({'le': bound})} {cumulative}"
                    )
                lines.append(f"{name}_sum{label_str()} {sample.get('sum', 0)}")
                lines.append(f"{name}_count{label_str()} {sample.get('count', 0)}")
            else:
                lines.append(f"{name}{label_str()} {sample.get('value', 0)}")
    return "\n".join(lines)
