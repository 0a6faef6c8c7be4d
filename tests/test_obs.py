"""Tests for the observability layer (repro.obs).

The contract under test: metrics merge deterministically (jobs 1 vs N vs
MPI ranks, warm-start on/off), traces parse and nest, heatmaps join the
coverage prover's verdicts, the block profiler never perturbs simulated
state, and — above all — a campaign run with observability attached is
bit-identical to one without.
"""

import json

import pytest

from repro import compile_source
from repro.analysis.loops import LoopInfo
from repro.faults import Campaign, MpiCampaign, campaign_fingerprint
from repro.interp import Interpreter
from repro.obs import (
    BlockProfiler,
    MetricsRegistry,
    Observation,
    TraceWriter,
    build_heatmap,
    hot_block_report,
    render_heatmap_text,
    render_metrics_text,
    validate_trace,
)

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


NESTED_KERNEL = """
int n = 6;
output double result[4];

void main() {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) { s = s + (double)(i * j); }
    }
    result[0] = s;
}
"""


def make_campaign(**kwargs):
    return Campaign(Interpreter(compile_source(KERNEL, name="kernel")), **kwargs)


def record_key(record):
    site = record.site
    return (
        site.instruction.opcode,
        site.occurrence,
        site.bit,
        record.outcome,
        record.status,
        record.cycles,
    )


class TestRegistry:
    def test_undeclared_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.counter("ipas_totally_made_up_total")

    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("ipas_trials_total", outcome="soc").inc()
        registry.counter("ipas_trials_total", outcome="soc").inc(2)
        registry.counter("ipas_trials_total", outcome="crash").inc()
        assert registry.counter("ipas_trials_total", outcome="soc").value == 3
        assert registry.counter("ipas_trials_total", outcome="crash").value == 1

    def test_histogram_buckets_and_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("ipas_trial_latency_ms", outcome="masked")
        for value in (0.3, 1.5, 1.6, 40.0, 99999.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.counts[0] == 1  # <= 0.5
        assert hist.counts[-1] == 1  # overflow
        assert hist.mean == pytest.approx(sum((0.3, 1.5, 1.6, 40.0, 99999.0)) / 5)

    def test_merge_is_grouping_independent(self):
        """Summing shards in any grouping yields bit-identical totals."""

        def shard(values):
            registry = MetricsRegistry()
            for v in values:
                registry.counter("ipas_trials_total", outcome="soc").inc()
                registry.histogram("ipas_trial_cycles", outcome="soc").observe(v)
            return registry

        values = [120, 450, 80_000, 120, 3_000_000, 7]
        left = shard(values[:2])
        left.merge(shard(values[2:]))
        right = MetricsRegistry()
        for v in values:
            right.counter("ipas_trials_total", outcome="soc").inc()
            right.histogram("ipas_trial_cycles", outcome="soc").observe(v)
        assert left.as_dict() == right.as_dict()

    def test_gauge_max_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("ipas_trial_latency_seconds_max", outcome="soc").observe_max(0.5)
        b.gauge("ipas_trial_latency_seconds_max", outcome="soc").observe_max(2.5)
        a.merge(b)
        assert a.gauge("ipas_trial_latency_seconds_max", outcome="soc").value == 2.5

    def test_round_trip_and_unknown_names_skipped(self):
        registry = MetricsRegistry()
        registry.counter("ipas_recovery_rollbacks_total").inc(4)
        data = registry.as_dict()
        data["ipas_from_the_future_total"] = {
            "type": "counter", "help": "", "unit": "", "wall": False,
            "samples": [{"labels": {}, "value": 1}],
        }
        restored = MetricsRegistry.from_dict(data)
        assert restored.counter("ipas_recovery_rollbacks_total").value == 4
        assert "ipas_from_the_future_total" not in restored.as_dict()

    def test_deterministic_snapshot_excludes_wall_and_harness(self):
        registry = MetricsRegistry()
        registry.counter("ipas_trials_total", outcome="soc").inc()
        registry.counter("ipas_worker_deaths_total").inc()  # harness event
        registry.counter("ipas_worker_busy_seconds_total").value += 1.5  # wall
        snapshot = registry.deterministic_snapshot()
        assert "ipas_trials_total" in snapshot
        assert "ipas_worker_deaths_total" not in snapshot
        assert "ipas_worker_busy_seconds_total" not in snapshot

    def test_render_metrics_text(self):
        registry = MetricsRegistry()
        registry.counter("ipas_trials_total", outcome="soc").inc(3)
        text = render_metrics_text(registry.as_dict())
        assert '# TYPE ipas_trials_total counter' in text
        assert 'ipas_trials_total{outcome="soc"} 3' in text


class TestCampaignMergeDeterminism:
    """Satellite: aggregation identical at jobs 1 vs 2 vs MPI ranks, warm on/off."""

    def snapshot(self, **kwargs):
        result = make_campaign(
            warm_start=kwargs.pop("warm_start", False)
        ).run(24, seed=7, **kwargs)
        return result, result.stats.registry.deterministic_snapshot()

    def test_jobs_1_vs_2(self):
        r1, d1 = self.snapshot(n_jobs=1)
        r2, d2 = self.snapshot(n_jobs=2)
        assert d1 == d2
        assert [record_key(r) for r in r1.records] == [
            record_key(r) for r in r2.records
        ]

    def test_warm_start_on_off(self):
        _, cold = self.snapshot(n_jobs=2)
        _, warm = self.snapshot(n_jobs=2, warm_start=True)
        # The warm engine adds its own ledger counters; the trial-level
        # metrics (outcomes, cycles) must be bit-identical to a cold run.
        warm_trials = {k: v for k, v in warm.items() if not k.startswith("ipas_warm")}
        assert warm_trials == cold
        assert warm["ipas_warm_restores_total"]["samples"][0]["value"] == 24

    def test_mpi_ranks_jobs_1_vs_2(self):
        from repro.workloads import get_workload

        workload = get_workload("is")
        snapshots = []
        for n_jobs in (1, 2):
            job = workload.make_job(2, 1)
            campaign = MpiCampaign(
                job, verifier=workload.verifier(),
                budget_factor=workload.budget_factor,
            )
            obs = Observation()
            result = campaign.run(10, seed=3, n_jobs=n_jobs, obs=obs)
            assert result.stats.registry is obs.registry
            snapshots.append(obs.registry.deterministic_snapshot())
        assert snapshots[0] == snapshots[1]


class TestTrace:
    def test_traced_campaign_validates(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs = Observation(trace_path=path)
        make_campaign().run(12, seed=1, n_jobs=2, obs=obs)
        report = validate_trace(path)
        assert report["ok"], report["errors"]
        assert report["phases"].get("X", 0) >= 12  # trials + campaign phases
        assert report["lanes"] >= 2  # campaign lane + at least one worker
        # strict JSON parsers work too: the array is properly terminated
        events = json.loads((tmp_path / "trace.json").read_text())
        assert any(e.get("name") == "sample-trials" for e in events if e)

    def test_unterminated_trace_still_validates(self, tmp_path):
        path = str(tmp_path / "crash.json")
        writer = TraceWriter(path)
        writer.complete("prepare", "phase", 0, 0, 0.0, 0.5)
        writer._fh.flush()  # simulate a crash: no close(), no "]"
        report = validate_trace(path)
        assert report["ok"], report["errors"]
        assert report["phases"]["X"] == 1

    def test_overlapping_spans_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        lines = ["["]
        for ts in (0, 50):  # [0,100) and [50,150) partially overlap
            lines.append(json.dumps(
                {"ph": "X", "pid": 1, "tid": 0, "ts": ts, "dur": 100, "name": "t"}
            ) + ",")
        path.write_text("\n".join(lines) + "\n")
        report = validate_trace(str(path))
        assert not report["ok"]
        assert any("overlaps" in e for e in report["errors"])

    def test_resume_appends_on_one_time_axis(self, tmp_path):
        path = str(tmp_path / "multi.json")
        obs = Observation(trace_path=path)
        make_campaign().run(6, seed=1, obs=obs)
        first = validate_trace(path)["events"]
        make_campaign().run(6, seed=2, obs=obs)  # reuses the Observation
        report = validate_trace(path)
        assert report["ok"], report["errors"]
        assert report["events"] > first


class TestHeatmap:
    def test_join_with_coverage_verdicts(self):
        campaign = make_campaign()
        result = campaign.run(40, seed=3)
        heatmap = build_heatmap(result.records, campaign.interp.module)
        assert heatmap["kind"] == "ipas-heatmap"
        assert heatmap["trials"] == 40
        assert heatmap["sites"]
        for site in heatmap["sites"]:
            assert site["static_verdict"] in ("detected", "masked", "escapes", None)
            assert sum(site["outcomes"].values()) == site["trials"]
        # unprotected module: the prover can never promise detection
        assert all(s["static_verdict"] != "detected" for s in heatmap["sites"])
        assert sum(s["trials"] for s in heatmap["sites"]) == 40

    def test_render_text(self):
        campaign = make_campaign()
        result = campaign.run(20, seed=3)
        heatmap = build_heatmap(result.records, campaign.interp.module)
        text = render_heatmap_text(heatmap)
        assert "fault-site heatmap" in text
        assert "static" in text


class TestBlockProfiler:
    def test_profile_matches_interpreter_and_preserves_state(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        golden = interp.run(profile=True)
        profiled = Interpreter(compile_source(KERNEL, name="kernel"))
        with BlockProfiler(profiled.cm) as prof:
            result = profiled.run()
        assert result.cycles == golden.cycles
        assert prof.hits == list(golden.profile)
        report = prof.report(top=5)
        assert report["blocks"]
        assert report["total_cycles"] == sum(
            h * cb.cost
            for cf in profiled.cm.cfuncs
            for cb, h in zip(cf.blocks, (prof.hits[b.gid] for b in cf.blocks))
        )

    def test_block_fns_restored_and_rearm_guard(self):
        """Armed, all three dispatch tables hold the timed per-block
        wrappers, so no region runs past them, not even one entered at an
        inner loop header; disarmed, each table is back, ``profiled_fns``
        included, whether it was built or still ``None``."""
        for build_profiled in (False, True):
            interp = Interpreter(compile_source(NESTED_KERNEL, name="nested"))
            cm = interp.cm
            if build_profiled:
                cm.profiled_tables()
            originals = [
                (list(cf.block_fns), list(cf.region_fns), cf.profiled_fns)
                for cf in cm.cfuncs
            ]
            inner = {}
            for cf in cm.cfuncs:
                loops = LoopInfo(cf.fn).loops
                inner[cf.index] = [
                    cf.fn.blocks.index(lp.header) for lp in loops
                    if any(lp.blocks < other.blocks for other in loops)
                ]
            # main's nest runs as one region, entered at both loop headers
            (main,) = [cf for cf in cm.cfuncs if cf.name == "main"]
            assert inner[main.index]
            for bi in inner[main.index]:
                assert main.region_fns[bi] is not main.block_fns[bi]
            profiler = BlockProfiler(cm)
            with profiler:
                for cf, (block_fns, region_fns, _) in zip(cm.cfuncs, originals):
                    assert cf.region_fns == cf.block_fns
                    assert cf.profiled_fns == cf.block_fns
                    assert not set(cf.block_fns) & set(block_fns + region_fns)
                    for bi in inner[cf.index]:
                        assert cf.region_fns[bi] not in region_fns
                with pytest.raises(RuntimeError):
                    with BlockProfiler(cm):
                        pass
            for cf, (block_fns, region_fns, profiled_fns) in zip(cm.cfuncs, originals):
                assert cf.block_fns == block_fns
                assert cf.region_fns == region_fns
                assert cf.profiled_fns is profiled_fns
                assert (profiled_fns is None) != build_profiled

    def test_report_from_run_profile(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        result = interp.run(profile=True)
        report = hot_block_report(interp.cm, list(result.profile))
        assert report["blocks"][0]["cycles"] >= report["blocks"][-1]["cycles"]


class TestCheckpointStatsPersistence:
    def test_resumed_campaign_reports_cumulative_telemetry(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")

        class Abort(Exception):
            pass

        def bomb(index, record, remaining=[8]):
            remaining[0] -= 1
            if remaining[0] == 0:
                raise Abort

        with pytest.raises(Abort):
            make_campaign().run(20, seed=3, checkpoint_path=path, on_trial=bomb)
        header = json.loads(open(path).readline())
        assert "stats" in header  # metrics snapshot persisted on flush

        resumed = make_campaign().run(20, seed=3, checkpoint_path=path)
        stats = resumed.stats
        # progress accounting stays restart-local ...
        assert stats.resumed == 8
        assert stats.completed == 12
        # ... while outcome telemetry is cumulative across both runs
        assert sum(stats.outcome_counts.values()) == 20

    def test_pre_stats_checkpoint_still_resumes(self, tmp_path):
        """A v2 header without the stats key (older writer) resumes fine."""
        path = str(tmp_path / "ckpt.jsonl")

        class Abort(Exception):
            pass

        def bomb(index, record, remaining=[5]):
            remaining[0] -= 1
            if remaining[0] == 0:
                raise Abort

        with pytest.raises(Abort):
            make_campaign().run(20, seed=3, checkpoint_path=path, on_trial=bomb)
        # strip the stats key, as a pre-observability writer would have
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header.pop("stats")
        header.pop("crc")
        from repro.faults.parallel import _seal

        lines[0] = json.dumps(_seal(header))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        resumed = make_campaign().run(20, seed=3, checkpoint_path=path)
        assert resumed.stats.resumed == 5
        assert resumed.stats.completed == 15
        assert sum(resumed.stats.outcome_counts.values()) == 15


class TestBitIdentity:
    """Observability must never perturb outcomes or fingerprints."""

    def test_outcomes_identical_with_obs_on_and_off(self, tmp_path):
        plain = make_campaign().run(24, seed=7, n_jobs=2)
        obs = Observation(
            trace_path=str(tmp_path / "t.json"),
            metrics_path=str(tmp_path / "m.json"),
        )
        traced = make_campaign().run(24, seed=7, n_jobs=2, obs=obs)
        assert [record_key(r) for r in plain.records] == [
            record_key(r) for r in traced.records
        ]
        assert plain.counts.as_dict() == traced.counts.as_dict()

    def test_fingerprint_independent_of_obs(self):
        a = make_campaign()
        b = make_campaign()
        b.run(4, seed=1, obs=Observation())
        assert campaign_fingerprint(a, 10, 3) == campaign_fingerprint(b, 10, 3)

    def test_stats_surface_unchanged(self):
        """The legacy CampaignStats attribute API stays intact on top of
        the registry (the supervisor pokes these via setattr)."""
        result = make_campaign().run(8, seed=1)
        stats = result.stats
        stats.worker_deaths += 2
        stats.retries += 1
        assert stats.worker_deaths == 2
        assert stats.harness_events
        assert stats.registry.counter("ipas_worker_deaths_total").value == 2
        assert isinstance(stats.as_dict(), dict)


class TestObservationArtifacts:
    def test_metrics_json_written_on_close(self, tmp_path):
        path = tmp_path / "metrics.json"
        obs = Observation(metrics_path=str(path))
        make_campaign().run(6, seed=1, obs=obs)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "ipas-metrics"
        totals = payload["metrics"]["ipas_trials_total"]["samples"]
        assert sum(s["value"] for s in totals) == 6
