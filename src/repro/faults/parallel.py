"""Parallel fault-injection campaign engine.

Statistical campaigns are embarrassingly parallel — every trial is an
independent interpreter run — but naive parallelisation breaks the two
properties the experiments lean on: *determinism* (a campaign with the same
seed must replay identically, §5.4) and *amortised compilation* (workers
must not recompile the module per trial).  This engine keeps both:

* **Deterministic sharding.**  The full trial list (fault sites + bits) is
  pre-sampled *serially* from the seed before any worker starts, so the
  sampled faults — and therefore every per-trial outcome — are bit-identical
  for any worker count, including ``n_jobs=1`` falling back to the plain
  in-process loop.  Trials are only *executed* out of order; results are
  reassembled by trial index.  The plan and its bookkeeping live in one
  :class:`TrialPlan`, which the campaign service shares; single-process
  and MPI campaigns both run through :func:`run_campaign`.

* **Persistent, supervised workers.**  Workers are forked from the prepared
  parent (``fork`` start method), so they inherit the compiled module, the
  golden capture, and the indexed fault space — zero recompilation, one
  ``Interpreter`` per worker reused across its whole shard.  Trials travel
  to workers as indexes and come back as their :func:`trial_entry` (the
  form checkpoints and the service carry) plus the run's warm-start
  triple — IR objects never cross the process boundary.  The pool is run by
  :mod:`repro.faults.supervisor`: dead or hung workers are detected, their
  trials requeued, replacements respawned with capped backoff, poison
  trials quarantined, and a collapsed pool degrades to in-process serial
  execution — as does a platform without ``fork``.

* **Checkpointing (format v2).**  With a checkpoint path, completed trials
  are flushed to a JSONL file keyed by a campaign fingerprint (module +
  trial plan hash).  Every line carries a CRC32 of its canonical payload;
  flushes are atomic (tmp + rename), so a reader never observes a torn
  file; loading tolerates a truncated tail and skips corrupted lines with
  a warning; a fingerprint mismatch is explicit (warn-and-discard by
  default, :class:`CheckpointMismatchError` under ``strict_resume``).

* **Observability.**  A :class:`CampaignStats` tracks trials/sec,
  per-outcome latency histograms, worker utilization, ETA, and harness
  health (worker deaths, hangs, respawns, retries, quarantines); the CLI's
  ``--progress`` flag renders it live.

``IPAS_JOBS`` sets the default worker count for every campaign entry point
(CLI, experiment drivers); ``n_jobs=0`` means one worker per CPU.
``IPAS_TRIAL_TIMEOUT``, ``IPAS_MAX_RETRIES``, and ``IPAS_ON_WORKER_FAILURE``
set the supervision defaults the same way.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
import warnings
import zlib
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.registry import LATENCY_BUCKETS_MS, MetricsRegistry
from ..recover.runtime import RecoveryTelemetry
from .model import FaultSite
from .outcomes import Outcome, OutcomeCounts, parse_outcome
from .sanitizer import sanitize_records
from .supervisor import (
    PoolCollapse,
    SupervisorPolicy,
    TrialFailure,
    WorkerFailureError,
    run_supervised,
)

#: trials handed to a worker per dispatch; large enough to amortise IPC,
#: small enough to keep the shards balanced and the checkpoint fresh.
DEFAULT_CHUNK = 16

CHECKPOINT_VERSION = 2


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``IPAS_JOBS``, else 1.

    ``0`` (or any negative value) selects one worker per available CPU.
    """
    if n_jobs is None:
        env = os.environ.get("IPAS_JOBS")
        if env:
            try:
                n_jobs = int(env)
            except ValueError:
                raise ValueError(f"IPAS_JOBS must be an integer, got {env!r}")
        else:
            n_jobs = 1
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    return n_jobs


def fork_available() -> bool:
    """Whether the persistent-worker pool can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- observability ------------------------------------------------------------
#
# The bucket bounds and every counter below are declared in the
# ``repro.obs`` metric catalog; ``CampaignStats`` is a campaign-shaped view
# over a :class:`~repro.obs.MetricsRegistry`, which owns aggregation,
# deterministic merge, and serialization.


def _counter_prop(metric: str, doc: str):
    """Attribute-style access to one registry counter.

    Keeps the historical ``stats.worker_deaths += 1`` surface (the
    supervisor and tests use it) while the registry stays the single
    source of truth.
    """

    def fget(self):
        return self.registry.counter(metric).value

    def fset(self, value):
        self.registry.counter(metric).value = value

    return property(fget, fset, doc=doc)


class CampaignStats:
    """Throughput, latency, and harness-health instrumentation.

    Every counter lives in ``self.registry`` (a
    :class:`repro.obs.MetricsRegistry`) under a declared metric name; the
    attribute properties below are views.  Pass a shared registry to
    aggregate several campaigns (or an ``Observation``'s registry) —
    otherwise each stats object gets its own.
    """

    __slots__ = ("n_trials", "n_jobs", "started", "finished", "registry",
                 "_prior_elapsed")

    def __init__(
        self, n_trials: int, n_jobs: int,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.n_trials = n_trials
        self.n_jobs = n_jobs
        self.started = time.perf_counter()
        self.finished: Optional[float] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        #: wall time absorbed from a resumed checkpoint's stats summary
        self._prior_elapsed = 0.0

    # -- registry-backed counters ------------------------------------------
    completed = _counter_prop(
        "ipas_trials_completed_total", "trials executed (cumulative)")
    resumed = _counter_prop(
        "ipas_trials_resumed_total", "trials restored from a checkpoint")
    busy_seconds = _counter_prop(
        "ipas_worker_busy_seconds_total", "summed per-trial wall time")
    # harness health (maintained by the supervisor)
    worker_deaths = _counter_prop(
        "ipas_worker_deaths_total", "workers lost to crash or hang-kill")
    hangs = _counter_prop("ipas_worker_hangs_total", "deadline kills")
    respawns = _counter_prop(
        "ipas_worker_respawns_total", "replacement workers forked")
    retries = _counter_prop(
        "ipas_trial_retries_total", "re-dispatches of a suspect trial")
    requeued = _counter_prop(
        "ipas_trials_requeued_total", "innocent chunk-mates requeued")
    quarantined = _counter_prop(
        "ipas_trials_quarantined_total", "trials delivered as TrialFailure")
    backoff_seconds = _counter_prop(
        "ipas_backoff_seconds_total", "respawn backoff accumulated")
    # recovery runtime (nonzero only when trials run with rollback)
    snapshots = _counter_prop(
        "ipas_recovery_snapshots_total", "region snapshots captured")
    rollbacks = _counter_prop(
        "ipas_recovery_rollbacks_total", "rollback re-executions")
    reexec_cycles = _counter_prop(
        "ipas_recovery_reexec_cycles_total", "cycles discarded and re-executed")
    escalations = _counter_prop(
        "ipas_recovery_escalations_total", "rollbacks refused")
    # warm-start engine (nonzero only for warm campaigns)
    warm_restores = _counter_prop(
        "ipas_warm_restores_total", "trials started from a ladder rung")
    golden_resyncs = _counter_prop(
        "ipas_warm_resyncs_total", "trials finished by golden resync")
    warm_cycles_saved = _counter_prop(
        "ipas_warm_cycles_saved_total", "prefix cycles skipped via restores")

    @property
    def serial_fallback(self) -> bool:
        """The pool collapsed into an in-process run."""
        return bool(self.registry.gauge("ipas_serial_fallback").value)

    @serial_fallback.setter
    def serial_fallback(self, value) -> None:
        self.registry.gauge("ipas_serial_fallback").value = int(bool(value))

    # -- per-outcome views (labeled metrics rendered as plain dicts) -------

    def _by_outcome(self, metric: str) -> Dict:
        return {
            dict(labels).get("outcome", ""): inst
            for labels, inst in self.registry.samples(metric).items()
        }

    @property
    def outcome_counts(self) -> Dict[str, int]:
        return {k: c.value for k, c in self._by_outcome("ipas_trials_total").items()}

    @property
    def latency_sum(self) -> Dict[str, float]:
        return {
            k: h.total / 1000.0
            for k, h in self._by_outcome("ipas_trial_latency_ms").items()
        }

    @property
    def latency_max(self) -> Dict[str, float]:
        return {
            k: g.value
            for k, g in self._by_outcome("ipas_trial_latency_seconds_max").items()
        }

    @property
    def histograms(self) -> Dict[str, List[int]]:
        return {
            k: list(h.counts)
            for k, h in self._by_outcome("ipas_trial_latency_ms").items()
        }

    # -- recording ---------------------------------------------------------

    def record(
        self, outcome: Outcome, seconds: float, recovery=None, warm=None,
        cycles: Optional[int] = None,
    ) -> None:
        key = outcome.value
        reg = self.registry
        reg.counter("ipas_trials_completed_total").value += 1
        reg.counter("ipas_worker_busy_seconds_total").value += seconds
        if recovery is not None:
            reg.counter("ipas_recovery_snapshots_total").value += recovery.snapshots
            reg.counter("ipas_recovery_rollbacks_total").value += recovery.rollbacks
            reg.counter(
                "ipas_recovery_reexec_cycles_total"
            ).value += recovery.reexec_cycles
            reg.counter(
                "ipas_recovery_escalations_total"
            ).value += recovery.escalations
        if warm is not None:
            warm_index, resynced, saved = warm
            if warm_index >= 0:
                reg.counter("ipas_warm_restores_total").value += 1
                reg.counter("ipas_warm_cycles_saved_total").value += saved
            if resynced:
                reg.counter("ipas_warm_resyncs_total").value += 1
        reg.counter("ipas_trials_total", outcome=key).value += 1
        reg.histogram("ipas_trial_latency_ms", outcome=key).observe(seconds * 1000.0)
        reg.gauge("ipas_trial_latency_seconds_max", outcome=key).observe_max(seconds)
        if cycles is not None:
            reg.histogram("ipas_trial_cycles", outcome=key).observe(cycles)

    def absorb(self, stats_data: Dict) -> None:
        """Fold a previous run's persisted metrics in (checkpoint resume).

        ``stats_data`` is a registry snapshot from a checkpoint header; the
        resumed campaign then reports *cumulative* telemetry — outcome
        tallies, latency, recovery and harness events across every restart.
        ``completed`` and ``resumed`` stay restart-local (work performed by
        *this* run vs. records restored from disk), so progress accounting
        keeps its established meaning.
        """
        prior = MetricsRegistry.from_dict(stats_data)
        self._prior_elapsed += prior.counter(
            "ipas_campaign_elapsed_seconds_total"
        ).value
        prior.counter("ipas_trials_completed_total").value = 0
        prior.counter("ipas_trials_resumed_total").value = 0
        self.registry.merge(prior)

    def finish(self) -> None:
        if self.finished is None:
            self.finished = time.perf_counter()
            self.registry.counter(
                "ipas_campaign_elapsed_seconds_total"
            ).value += self.finished - self.started

    # -- derived metrics ---------------------------------------------------

    @property
    def elapsed(self) -> float:
        end = self.finished if self.finished is not None else time.perf_counter()
        return max(end - self.started + self._prior_elapsed, 1e-9)

    @property
    def trials_per_second(self) -> float:
        return self.completed / self.elapsed

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent executing trials (0..1)."""
        return min(self.busy_seconds / (self.elapsed * max(self.n_jobs, 1)), 1.0)

    @property
    def remaining(self) -> int:
        return max(self.n_trials - self.resumed - self.completed, 0)

    @property
    def eta_seconds(self) -> float:
        rate = self.trials_per_second
        return self.remaining / rate if rate > 0 else float("inf")

    @property
    def harness_events(self) -> int:
        """Total supervisor actions — 0 means an undisturbed run."""
        return self.worker_deaths + self.respawns + self.retries + self.quarantined

    @property
    def recovery_events(self) -> int:
        """Total rollback-runtime activity — 0 when recovery is off."""
        return self.snapshots + self.rollbacks + self.escalations

    @property
    def warm_events(self) -> int:
        """Total warm-start activity — 0 for cold campaigns."""
        return self.warm_restores + self.golden_resyncs

    @property
    def mean_rollback_cycles(self) -> float:
        """Mean re-executed cycles per rollback (detection distance)."""
        return self.reexec_cycles / self.rollbacks if self.rollbacks else 0.0

    def mean_latency(self, outcome: str) -> float:
        n = self.outcome_counts.get(outcome, 0)
        return self.latency_sum.get(outcome, 0.0) / n if n else 0.0

    def as_dict(self) -> Dict:
        """JSON-compatible snapshot (benchmarks persist this)."""
        data: Dict = {
            "n_trials": self.n_trials,
            "n_jobs": self.n_jobs,
            "completed": self.completed,
            "resumed": self.resumed,
            "elapsed_seconds": self.elapsed,
            "trials_per_second": self.trials_per_second,
            "worker_utilization": self.utilization,
            "busy_seconds": self.busy_seconds,
            "outcomes": dict(self.outcome_counts),
            "latency_mean_ms": {
                k: 1000.0 * self.mean_latency(k) for k in self.outcome_counts
            },
            "latency_max_ms": {
                k: 1000.0 * v for k, v in self.latency_max.items()
            },
            "latency_histogram_bounds_ms": list(LATENCY_BUCKETS_MS),
            "latency_histograms": {k: list(v) for k, v in self.histograms.items()},
            "harness": {
                "worker_deaths": self.worker_deaths,
                "hangs": self.hangs,
                "respawns": self.respawns,
                "retries": self.retries,
                "requeued": self.requeued,
                "quarantined": self.quarantined,
                "backoff_seconds": self.backoff_seconds,
                "serial_fallback": self.serial_fallback,
            },
        }
        if self.recovery_events:
            data["recovery"] = {
                "snapshots": self.snapshots,
                "rollbacks": self.rollbacks,
                "reexec_cycles": self.reexec_cycles,
                "mean_rollback_cycles": self.mean_rollback_cycles,
                "escalations": self.escalations,
                "corrected": self.outcome_counts.get(Outcome.CORRECTED.value, 0),
            }
        if self.warm_events:
            data["warm_start"] = {
                "restores": self.warm_restores,
                "golden_resyncs": self.golden_resyncs,
                "prefix_cycles_saved": self.warm_cycles_saved,
            }
        return data

    def progress_line(self) -> str:
        done = self.resumed + self.completed
        eta = self.eta_seconds
        eta_text = f"{eta:5.1f}s" if eta != float("inf") else "   ?  "
        line = (
            f"[{done}/{self.n_trials}] "
            f"{self.trials_per_second:7.1f} trials/s  "
            f"util {self.utilization:4.0%}  eta {eta_text}"
        )
        if self.rollbacks or self.escalations:
            corrected = self.outcome_counts.get(Outcome.CORRECTED.value, 0)
            line += (
                f"  [rollbacks {self.rollbacks} corrected {corrected}"
                f" escalated {self.escalations}]"
            )
        if self.warm_events:
            line += (
                f"  [warm {self.warm_restores} resync {self.golden_resyncs}]"
            )
        if self.harness_events:
            line += (
                f"  [deaths {self.worker_deaths} respawns {self.respawns}"
                f" retries {self.retries} quar {self.quarantined}"
                + (" serial-fallback" if self.serial_fallback else "")
                + "]"
            )
        return line

    def __repr__(self) -> str:
        return (
            f"<CampaignStats {self.completed}/{self.n_trials} "
            f"{self.trials_per_second:.1f}/s util={self.utilization:.0%}>"
        )


# -- checkpointing -------------------------------------------------------------


class CheckpointWarning(UserWarning):
    """A checkpoint was discarded, cleaned, or partially recovered."""


class CheckpointError(RuntimeError):
    """A checkpoint problem the caller asked to be strict about."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different campaign (or format version)."""


def _canonical(entry: Dict) -> str:
    return json.dumps(
        {k: entry[k] for k in sorted(entry) if k != "crc"},
        separators=(",", ":"),
    )


def _entry_crc(entry: Dict) -> int:
    return zlib.crc32(_canonical(entry).encode()) & 0xFFFFFFFF


def _seal(entry: Dict) -> Dict:
    entry["crc"] = _entry_crc(entry)
    return entry


def _checked_loads(raw: str):
    """Parse one checkpoint line → ``(entry, None)`` or ``(None, error)``.

    ``error`` is ``"unparseable"`` (torn write) or ``"crc"`` (bit damage
    to an otherwise well-formed line).
    """
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError:
        return None, "unparseable"
    if not isinstance(entry, dict):
        return None, "unparseable"
    if entry.get("crc") != _entry_crc(entry):
        return None, "crc"
    return entry, None


def sealed_line(entry: Dict) -> str:
    """Serialize ``entry`` as one checkpoint-v2 journal line: canonical
    JSON with a ``crc`` field sealing the payload.  The service job
    journal (:mod:`repro.service.journal`) shares this line format with
    campaign checkpoints so one reader/auditor covers both."""
    return json.dumps(_seal(dict(entry)))


def checked_line(raw: str):
    """Public counterpart of :func:`sealed_line`: parse one sealed line →
    ``(entry, None)`` or ``(None, "unparseable"|"crc")``."""
    return _checked_loads(raw)


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` (or ``path`` itself when it
    is a directory), making a just-renamed or just-created entry durable.

    ``os.replace`` makes a rename atomic but not durable: until the parent
    directory's metadata reaches the disk, a power loss can roll the
    rename back.  Best-effort — platforms that cannot open or fsync a
    directory are skipped silently rather than failing the flush.
    """
    directory = path if os.path.isdir(path) else (os.path.dirname(path) or ".")
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def trial_entry(index: int, site: FaultSite, site_index: int, record) -> Dict:
    """Canonical (unsealed) checkpoint entry for one completed trial.

    This is the single wire/disk schema for trial results: checkpoint
    lines, fork-pool results, service acks, and cached service results
    all carry exactly this dict (rebuilt into a record by
    :func:`record_from_entry`), so "bit-identical records" can be
    asserted by comparing entries directly.
    """
    entry = {
        "i": index,
        "site_index": site_index,
        "occurrence": site.occurrence,
        "bit": site.bit,
        "outcome": record.outcome.value,
        "status": record.status,
        "cycles": record.cycles,
    }
    failure = getattr(record, "failure", None)
    if failure is not None:
        entry["failure"] = failure.as_dict()
    recovery = getattr(record, "recovery", None)
    if recovery is not None:
        entry["recovery"] = recovery.as_dict()
    return entry


def entry_matches_site(entry: Dict, site: FaultSite, site_index: int) -> bool:
    """Whether a persisted/wire entry matches the deterministic plan slot.

    Guards resume and service commit alike: an entry whose identity
    fields disagree with the locally sampled plan is discarded and the
    trial re-runs.
    """
    return (
        entry.get("site_index") == site_index
        and entry.get("occurrence") == site.occurrence
        and entry.get("bit") == site.bit
    )


def record_from_entry(entry: Dict, site: FaultSite, context: str):
    """Reconstruct a ``TrialRecord`` from a checkpoint/wire entry.

    ``context`` names the source in the error raised for an unknown
    outcome string (forward-compat guard).
    """
    from .campaign import TrialRecord

    failure = (
        TrialFailure.from_dict(entry["failure"]) if entry.get("failure") else None
    )
    recovery = (
        RecoveryTelemetry.from_dict(entry["recovery"])
        if entry.get("recovery")
        else None
    )
    return TrialRecord(
        site,
        parse_outcome(entry["outcome"], context),
        entry["status"],
        entry["cycles"],
        failure=failure,
        recovery=recovery,
    )


class CampaignCheckpoint:
    """Versioned, corruption-resistant JSONL checkpoint (format v2).

    Layout: a header line ``{"version", "fingerprint", "n_trials", "seed",
    "crc"}`` followed by one line per completed trial, each carrying a
    ``crc`` — CRC32 of the line's canonical JSON without the ``crc`` field.
    Flushes write the whole file to ``<path>.tmp`` and atomically rename,
    so a crash at any instant leaves the previous complete version on
    disk.  Loading drops a torn final line and skips CRC-damaged lines
    (each with a :class:`CheckpointWarning`); the affected trials simply
    re-run.  A header that does not match this campaign is discarded with
    a warning — or raised as :class:`CheckpointMismatchError` when
    ``strict`` is set.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        n_trials: int,
        seed: int,
        flush_interval: int = DEFAULT_CHUNK,
        model: str = "transient-1bit",
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.n_trials = n_trials
        self.seed = seed
        #: fault-model spec of the campaign writing/resuming this file.
        #: Headers without the key are legacy files: always transient-1bit.
        self.model = model
        self.flush_interval = flush_interval
        self._record_lines: List[str] = []
        self._pending = 0
        self._open = False
        #: CampaignStats whose registry snapshot is persisted into the
        #: header on every flush (None skips the summary)
        self.stats = None
        # diagnostics from the last load()
        self.mismatch: Optional[str] = None
        self.corrupted_lines = 0
        self.truncated_tail = False
        #: metrics snapshot recovered from a resumed header, for
        #: :meth:`CampaignStats.absorb` (None for pre-stats checkpoints)
        self.prior_stats: Optional[Dict] = None

    def load(self, strict: bool = False) -> Dict[int, Dict]:
        """Completed trial dicts by index; ``{}`` if absent or mismatched.

        Raises ``ValueError`` naming ``path:line`` for a trial line whose
        outcome this engine does not know (a forward-compat guard: it must
        fail loudly, not as a bare ``KeyError`` deep in resume)."""
        self.mismatch = None
        self.prior_stats = None
        scan = scan_checkpoint(self.path, self.n_trials)
        self.corrupted_lines = scan.corrupted_lines
        self.truncated_tail = scan.truncated_tail
        if not scan.lines:
            return {}
        header = scan.header
        if scan.error is not None:
            self.mismatch = scan.error
        elif header.get("model", "transient-1bit") != self.model:
            # Trial records from different corruption models must never be
            # merged — refuse outright rather than warn-and-discard, so the
            # operator consciously picks a new checkpoint path.
            raise CheckpointMismatchError(
                f"{self.path}: fault-model mismatch: checkpoint was written "
                f"by {header.get('model', 'transient-1bit')!r} but this "
                f"campaign runs {self.model!r}; resuming would mix "
                f"incompatible trial plans — use a fresh checkpoint path"
            )
        elif header.get("fingerprint") != self.fingerprint:
            self.mismatch = (
                f"fingerprint mismatch: checkpoint {header.get('fingerprint')!r} "
                f"vs campaign {self.fingerprint!r}"
            )
        elif header.get("n_trials") != self.n_trials or header.get("seed") != self.seed:
            self.mismatch = (
                f"plan mismatch: checkpoint n_trials={header.get('n_trials')} "
                f"seed={header.get('seed')} vs campaign n_trials={self.n_trials} "
                f"seed={self.seed}"
            )
        if self.mismatch:
            if strict:
                raise CheckpointMismatchError(f"{self.path}: {self.mismatch}")
            warnings.warn(
                f"discarding checkpoint {self.path}: {self.mismatch}",
                CheckpointWarning,
                stacklevel=2,
            )
            return {}
        for line, outcome in scan.unknown_outcomes[:1]:
            parse_outcome(
                outcome, f"checkpoint {self.path}:{line}, version {CHECKPOINT_VERSION}"
            )
        prior_stats = header.get("stats")
        if isinstance(prior_stats, dict):
            self.prior_stats = prior_stats
        if scan.truncated_tail:
            warnings.warn(
                f"{self.path}: dropping torn final line (crash mid-write); "
                f"the trial will re-run",
                CheckpointWarning,
                stacklevel=2,
            )
        if scan.corrupted_lines:
            warnings.warn(
                f"{self.path}: skipped {scan.corrupted_lines} corrupted "
                f"checkpoint line(s); the affected trials will re-run",
                CheckpointWarning,
                stacklevel=2,
            )
        self._record_lines = [raw for raw, _entry in scan.records]
        return {entry["i"]: entry for _raw, entry in scan.records}

    def open_for_append(self, fresh: bool) -> None:
        """Start writing; ``fresh`` drops any previously loaded records.

        The first flush happens immediately, which also *cleans* a
        resumed file: torn or corrupted lines the load skipped are gone
        from the rewritten version.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if fresh:
            self._record_lines = []
        self._open = True
        self.flush()

    def _header_line(self) -> str:
        """The sealed header, rebuilt per flush so the persisted stats
        summary stays fresh.  Extra keys ride inside the CRC; readers only
        validate the four identity fields, so older engines resume these
        files untouched."""
        header: Dict = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "model": self.model,
        }
        if self.stats is not None:
            header["stats"] = self.stats.registry.as_dict()
        return json.dumps(_seal(header))

    def append(self, index: int, site: FaultSite, site_index: int, record) -> None:
        assert self._open
        self._record_lines.append(
            sealed_line(trial_entry(index, site, site_index, record))
        )
        self._pending += 1
        # An atomic flush rewrites the whole file, so amortise: the
        # interval grows with the file, keeping total flush work O(n log n).
        if self._pending >= max(self.flush_interval, len(self._record_lines) // 8):
            self.flush()

    def flush(self) -> None:
        """Atomically publish the current state (tmp + rename)."""
        if not self._open:
            return
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(self._header_line() + "\n")
            if self._record_lines:
                fh.write("\n".join(self._record_lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        # The data is durable (tmp fsynced above); make the *rename*
        # durable too, or a power loss can resurrect the previous file.
        fsync_directory(self.path)
        self._pending = 0

    def close(self) -> None:
        if self._open:
            self.flush()
            self._open = False


class CheckpointScan:
    """What one read of a checkpoint file found (:func:`scan_checkpoint`).

    ``exists`` says whether the file could be read and ``lines`` counts
    its lines; ``error`` says why the file or its header is unusable;
    ``header`` is the parsed header line.  Under a usable header every
    trial line lands in exactly one of: ``records`` (``(raw, entry)`` in
    file order), ``unknown_outcomes`` (``(line, outcome)``: structurally
    valid, but an outcome this engine does not know), ``corrupted_lines``
    (CRC damage, a torn line before the last, an index out of range) or
    ``truncated_tail`` (the torn final line of a crash mid-write)."""

    __slots__ = (
        "exists", "lines", "error", "header", "records", "unknown_outcomes",
        "corrupted_lines", "truncated_tail",
    )

    def __init__(self):
        self.exists = False
        self.lines = 0
        self.error: Optional[str] = None
        self.header: Optional[Dict] = None
        self.records: List[Tuple[str, Dict]] = []
        self.unknown_outcomes: List[Tuple[int, object]] = []
        self.corrupted_lines = 0
        self.truncated_tail = False


def scan_checkpoint(path: str, n_trials: Optional[int] = None) -> CheckpointScan:
    """Read ``path`` and sort its lines (see :class:`CheckpointScan`): the
    one reader under :meth:`CampaignCheckpoint.load` and
    :func:`verify_checkpoint`.  A trial index is in range when it is in
    ``range(n_trials)``, by default the header's ``n_trials`` (any int
    index when the header has none)."""
    scan = CheckpointScan()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        scan.error = str(exc)
        return scan
    scan.exists = True
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    scan.lines = len(lines)
    if not lines:
        scan.error = "empty file"
        return scan
    header, error = _checked_loads(lines[0])
    if header is None:
        scan.error = f"unreadable header ({error})"
        return scan
    scan.header = header
    if header.get("version") != CHECKPOINT_VERSION:
        scan.error = (
            f"unsupported checkpoint version {header.get('version')!r} "
            f"(this engine reads v{CHECKPOINT_VERSION})"
        )
        return scan
    if n_trials is None:
        n_trials = header.get("n_trials")
    bounded = isinstance(n_trials, int)
    for line, raw in enumerate(lines[1:], start=2):
        entry, error = _checked_loads(raw)
        if entry is None:
            if line == len(lines) and error == "unparseable":
                scan.truncated_tail = True
            else:
                scan.corrupted_lines += 1
            continue
        i = entry.get("i")
        if not isinstance(i, int) or (bounded and not 0 <= i < n_trials):
            scan.corrupted_lines += 1
        else:
            try:
                parse_outcome(entry.get("outcome"))
            except ValueError:
                scan.unknown_outcomes.append((line, entry.get("outcome")))
                continue
            scan.records.append((raw, entry))
    return scan


def verify_checkpoint(
    path: str,
    fingerprint: Optional[str] = None,
    n_trials: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dict:
    """Validate a checkpoint file and report what a resume would recover.

    Returns a JSON-compatible report: header validity, the fingerprint
    match (when an expected ``fingerprint`` is supplied), the number of
    ``recoverable`` trials, the ``lost`` count (trials a resume must
    re-run), corrupted lines, whether the tail was torn, and any
    ``unknown_outcomes`` — structurally valid records whose outcome string
    this engine does not know (each reported as ``{"line", "outcome"}``
    and excluded from ``recoverable``, since a resume would reject them).
    """
    scan = scan_checkpoint(path, n_trials)
    header = scan.header or {}
    report: Dict = {
        "path": path,
        "exists": scan.exists,
        "header_ok": scan.error is None,
        "version": header.get("version"),
        "fingerprint": header.get("fingerprint"),
        "fingerprint_ok": None,
        "n_trials": header.get("n_trials"),
        "seed": header.get("seed"),
        "records": len(scan.records) + len(scan.unknown_outcomes),
        "recoverable": len({entry["i"] for _raw, entry in scan.records}),
        "lost": None,
        "corrupted_lines": scan.corrupted_lines,
        "truncated_tail": scan.truncated_tail,
        "unknown_outcomes": [
            {"line": line, "outcome": outcome}
            for line, outcome in scan.unknown_outcomes
        ],
        "error": scan.error,
    }
    if scan.error is not None:
        return report
    if fingerprint is not None:
        report["fingerprint_ok"] = (
            header.get("fingerprint") == fingerprint
            and (n_trials is None or header.get("n_trials") == n_trials)
            and (seed is None or header.get("seed") == seed)
        )
    expected_trials = n_trials if n_trials is not None else header.get("n_trials")
    if isinstance(expected_trials, int):
        report["lost"] = max(expected_trials - report["recoverable"], 0)
    return report


def campaign_fingerprint(campaign, n_trials: int, seed: int) -> str:
    """Stable identity of one campaign's trial plan.

    Hashes the seed, trial count, budget, golden baseline, and the indexed
    fault space (per-site function, opcode, and dynamic count) — anything
    that changes the sampled trials or their meaning changes the
    fingerprint, so a stale checkpoint can never be resumed into a
    different campaign.
    """
    campaign.prepare()
    h = hashlib.sha256()
    h.update(
        (
            f"{campaign.entry}|{n_trials}|{seed}|{campaign.budget_factor}"
            f"|{campaign.golden_cycles}|{campaign.total_dynamic_injectable}|"
        ).encode()
    )
    recovery = getattr(campaign, "recovery", None)
    if recovery is not None:
        # Only armed recovery changes outcomes; plain campaigns keep their
        # historical fingerprints, so old checkpoints stay resumable.
        h.update(f"{recovery.signature()}|".encode())
    if getattr(campaign, "warm_start", False):
        # Warm-start records are bit-identical to cold ones, but the
        # execution engines differ — keep the checkpoints apart so a warm
        # resume never silently validates cold results (and vice versa).
        h.update(f"warm1|{campaign.effective_stride}|".encode())
    model = getattr(campaign, "fault_model", None)
    if model is not None and model.signature():
        # The default transient single-bit model signs as "" so historical
        # fingerprints survive byte-identical; every other model stamps its
        # full parameterised spec into the plan identity.
        h.update(f"{model.signature()}|".encode())
    for inst, count in campaign._sites:
        fn = inst.function
        h.update(f"{fn.name if fn else '?'}:{inst.opcode}:{count};".encode())
    return h.hexdigest()[:16]


class TrialPlan:
    """One campaign's pre-sampled trials and everything keyed by them.

    Built once per ``(campaign, n_trials, seed)``: the sampled sites, each
    site's index into the campaign's dynamic fault population, the
    fingerprint, the ``trial_entry`` round trip, checkpoint resume, and the
    sanitize sweep.  :func:`run_campaign`, the service coordinator and the
    service worker each hold one, so an entry means the same trial on
    every path.  Population indexes (not instruction identity) name a
    site, because an MPI population lists each instruction once per rank.
    """

    def __init__(self, campaign, n_trials: int, seed: int):
        self.campaign = campaign
        self.n_trials = n_trials
        self.seed = seed
        self.sites = campaign.sample_trials(n_trials, seed)
        self.site_index = campaign.population_indexes(self.sites)

    @cached_property
    def fingerprint(self) -> str:
        return campaign_fingerprint(self.campaign, self.n_trials, self.seed)

    def entry(self, index: int, record) -> Dict:
        """The canonical :func:`trial_entry` of trial ``index``."""
        return trial_entry(index, self.sites[index], self.site_index[index], record)

    def run_entry(self, index: int) -> Dict:
        """Execute trial ``index`` in-process and return its entry."""
        return self.entry(index, self.campaign.run_site(self.sites[index]))

    def adopt(self, records: List, entries: Iterable[Dict], context: str) -> List[int]:
        """Fill empty ``records`` slots from persisted or wire entries.

        An entry is adopted only when its index is in range, its slot is
        still empty, and its identity fields match the planned site;
        anything else is skipped (a duplicate is already held, a mismatch
        re-runs).  Returns the filled indexes.
        """
        filled = []
        for entry in entries:
            i = entry.get("i")
            if not isinstance(i, int) or not 0 <= i < self.n_trials:
                continue
            site = self.sites[i]
            if records[i] is None and entry_matches_site(entry, site, self.site_index[i]):
                records[i] = record_from_entry(entry, site, context)
                filled.append(i)
        return filled

    def resume(
        self, path: str, records: List, stats: Optional[CampaignStats] = None,
        strict: bool = False,
    ) -> CampaignCheckpoint:
        """Open this plan's checkpoint at ``path`` for append, first
        restoring every entry that matches its plan slot into ``records``.

        With ``stats``, the previous run's persisted metrics are absorbed
        (cumulative telemetry), restored trials count as ``resumed``, and
        every flush persists the stats into the header.
        """
        checkpoint = CampaignCheckpoint(
            path, self.fingerprint, self.n_trials, self.seed,
            model=self.campaign.fault_model.spec(),
        )
        completed = checkpoint.load(strict=strict)
        if stats is not None and checkpoint.prior_stats is not None:
            stats.absorb(checkpoint.prior_stats)
        restored = self.adopt(records, completed.values(), f"checkpoint {path}")
        if stats is not None:
            stats.resumed += len(restored)
            checkpoint.stats = stats
        checkpoint.open_for_append(fresh=not completed)
        return checkpoint

    def sanitize(self, records: List) -> None:
        """The static-vs-dynamic consistency sweep over assembled records.

        Parent-side by design: a worker exception would be quarantined as
        TRIAL_FAILURE, so the impossible-SOC check must run after assembly,
        where it can actually abort the run.
        """
        campaign = self.campaign
        sanitize_records(records, campaign.interp.module, model=campaign.fault_model)


# -- the engine ---------------------------------------------------------------


def run_campaign(
    campaign,
    n_trials: int,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    progress: bool = False,
    on_trial: Optional[Callable[[int, object], None]] = None,
    chunk_size: Optional[int] = None,
    supervision: Optional[SupervisorPolicy] = None,
    strict_resume: bool = False,
    chaos=None,
    obs=None,
):
    """Execute a campaign's trials, optionally sharded over worker processes.

    Returns the same ``CampaignResult`` (bit-identical records, in trial
    order) for every ``n_jobs``, with a :class:`CampaignStats` attached as
    ``result.stats`` — including under worker death and hangs, which the
    supervisor recovers by requeue + respawn (see
    :mod:`repro.faults.supervisor`) per ``supervision`` (default:
    :meth:`SupervisorPolicy.from_env`).  ``on_trial(index, record)``
    fires as each trial completes (completion order); an exception raised
    from it — including ``KeyboardInterrupt`` — aborts the campaign after
    flushing and closing the checkpoint, which is how interrupted runs stay
    resumable.  ``strict_resume`` turns a checkpoint/campaign mismatch into
    a :class:`CheckpointMismatchError` instead of a warn-and-discard.
    ``chaos`` (tests only) installs a failure injector in the workers.

    ``obs`` (a :class:`repro.obs.Observation`) arms the observability
    layer: trace spans stream to ``obs.trace_path`` and the stats registry
    is shared with (and dumped to) the observation.  ``None`` — the
    default — takes none of those branches; outcomes and fingerprints are
    bit-identical either way, traced or not.
    """
    from contextlib import nullcontext

    from .campaign import CampaignResult, TrialRecord

    n_jobs = resolve_jobs(n_jobs)
    policy = SupervisorPolicy.resolve(supervision)
    tracer = obs.open_trace() if obs is not None else None

    def phase(name: str, **args):
        return tracer.phase(name, **args) if tracer is not None else nullcontext()

    with phase("prepare"):
        campaign.prepare()
    ladder = None
    if campaign.warm_start:
        # Build the ladder in the parent: forked workers inherit the rungs
        # copy-on-write, so one golden capture serves every worker count —
        # and the rungs (hence every trial) are bit-identical at any n_jobs.
        with phase("ladder-capture"):
            ladder = campaign.ensure_ladder()
    with phase("sample-trials", n_trials=n_trials, seed=seed):
        plan = TrialPlan(campaign, n_trials, seed)
    sites, site_index = plan.sites, plan.site_index
    stats = CampaignStats(
        n_trials, n_jobs,
        registry=obs.registry if obs is not None else None,
    )
    records: List[Optional[TrialRecord]] = [None] * n_trials

    checkpoint = None
    if checkpoint_path:
        with phase("checkpoint-resume"):
            checkpoint = plan.resume(checkpoint_path, records, stats, strict_resume)

    pending = [i for i in range(n_trials) if records[i] is None]
    if ladder is not None and len(pending) > 1:
        # Bucket trials by their restore rung so consecutive chunks hit the
        # same rung (warm caches stay hot in each worker).  Results are
        # reassembled by index, so execution order never affects output.
        bucket = {}
        for i in pending:
            site = sites[i]
            snap = campaign._warm_plan(site, campaign._fire_cycle(site)).snapshot
            bucket[i] = snap.index if snap is not None else -1
        pending.sort(key=lambda i: (bucket[i], i))
    last_progress = [stats.started]

    def trace_trial(index: int, record: TrialRecord, seconds: float, wid: int) -> None:
        site = sites[index]
        inst = site.instruction
        fn = inst.function
        args = {
            "trial": index,
            "site": f"{fn.name if fn else '?'}:"
                    f"{inst.parent.name if inst.parent else '?'}",
            "opcode": inst.opcode,
            "occurrence": site.occurrence,
            "bit": site.bit,
            "status": record.status,
            "cycles": record.cycles,
        }
        rank = getattr(site, "rank", None)  # MPI sites name their rank
        if rank is not None:
            args["rank"] = rank
        tracer.trial(index, wid, seconds, record.outcome.value, args=args)
        recovery = record.recovery
        if recovery is not None and recovery.rollbacks:
            tracer.event(
                "rollback", wid, trial=index, rollbacks=recovery.rollbacks,
                reexec_cycles=recovery.reexec_cycles,
            )
        warm = getattr(record, "warm", None)
        if warm is not None and warm[1]:
            tracer.event("golden-resync", wid, trial=index)
        if record.outcome is Outcome.TRIAL_FAILURE:
            tracer.event("quarantine", wid, trial=index)

    def deliver(
        index: int, record: TrialRecord, seconds: float, wid: int = 0
    ) -> None:
        records[index] = record
        stats.record(
            record.outcome, seconds, record.recovery,
            getattr(record, "warm", None), cycles=record.cycles,
        )
        if tracer is not None:
            trace_trial(index, record, seconds, wid)
        if checkpoint is not None:
            checkpoint.append(index, sites[index], site_index[index], record)
        if on_trial is not None:
            on_trial(index, record)
        if progress:
            now = time.perf_counter()
            if now - last_progress[0] >= 0.5 or stats.remaining == 0:
                last_progress[0] = now
                print(stats.progress_line(), file=sys.stderr)

    def run_trial(index: int) -> Tuple[Dict, Optional[Tuple]]:
        # Runs in forked workers (which inherit the prepared campaign) and
        # in the parent for the serial-fallback path: the trial's entry,
        # as a socket worker sends it, and its warm triple for the stats.
        record = campaign.run_site(sites[index])
        return plan.entry(index, record), record.warm

    def deliver_entry(index: int, result, seconds: float, wid: int = 0) -> None:
        if isinstance(result, TrialFailure):
            record = TrialRecord(
                sites[index], Outcome.TRIAL_FAILURE, "harness", 0, failure=result
            )
        else:
            entry, warm = result
            record = record_from_entry(entry, sites[index], "worker result")
            record.warm = warm
        deliver(index, record, seconds, wid)

    try:
        try:
            with phase("execute", pending=len(pending), n_jobs=n_jobs):
                if len(pending) == 0:
                    pass
                elif n_jobs == 1 or len(pending) == 1 or not fork_available():
                    perf = time.perf_counter
                    for i in pending:
                        t0 = perf()
                        record = campaign.run_site(sites[i])
                        deliver(i, record, perf() - t0)
                else:
                    items = [(i, i) for i in pending]
                    try:
                        run_supervised(
                            run_trial,
                            items,
                            n_jobs,
                            deliver_entry,
                            policy=policy,
                            stats=stats,
                            chaos=chaos,
                            chunk_size=chunk_size,
                        )
                    except PoolCollapse as collapse:
                        # The pool cannot be sustained — finish what is left
                        # in-process.  Same classification path, same results.
                        stats.serial_fallback = True
                        if tracer is not None:
                            tracer.event("serial-fallback", 0, reason=collapse.reason)
                        perf = time.perf_counter
                        for index, payload in collapse.remaining:
                            t0 = perf()
                            deliver_entry(index, run_trial(payload), perf() - t0)
        finally:
            # Runs on success, errors, and KeyboardInterrupt alike: buffered
            # records are flushed and the checkpoint sealed before anything
            # propagates, so an interrupted campaign is always resumable.
            stats.finish()
            if checkpoint is not None:
                checkpoint.close()

        with phase("sanitize"):
            plan.sanitize(records)
    finally:
        if obs is not None:
            # Seal the trace and dump the metrics registry even when the
            # campaign aborts — a partial trace is still loadable.
            obs.close()

    counts = OutcomeCounts()
    for record in records:
        assert record is not None
        counts.record(record.outcome)
    result = CampaignResult(records, counts, campaign.golden_cycles, seed)
    result.stats = stats
    return result
