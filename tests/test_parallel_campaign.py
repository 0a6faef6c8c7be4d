"""Tests for the parallel campaign engine (determinism, checkpointing, stats).

The engine's contract is that a campaign is a pure function of (module,
input, seed): pre-sampling the trial plan serially makes outcomes
bit-identical for every worker count, checkpoint resume included.
"""

import json

import pytest

from repro import compile_source
from repro.experiments import cache
from repro.faults import (
    Campaign,
    CampaignCheckpoint,
    CampaignStats,
    Outcome,
    TrialRecord,
    campaign_fingerprint,
    injectable_instructions,
    resolve_jobs,
)
from repro.interp import Interpreter

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


def make_campaign():
    return Campaign(Interpreter(compile_source(KERNEL, name="kernel")))


def site_key(site):
    return (id(site.instruction), site.occurrence, site.bit)


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


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("IPAS_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("IPAS_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit beats env

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("IPAS_JOBS", raising=False)
        assert resolve_jobs(0) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("IPAS_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)


class TestDeterminism:
    def test_sample_trials_matches_executed_plan(self):
        campaign = make_campaign()
        planned = campaign.sample_trials(20, seed=5)
        result = campaign.run(20, seed=5)
        assert [site_key(r.site) for r in result.records] == [
            site_key(s) for s in planned
        ]

    def test_parallel_matches_serial(self):
        serial = make_campaign().run(24, seed=7)
        parallel = make_campaign().run(24, seed=7, n_jobs=4)
        assert serial.counts.as_dict() == parallel.counts.as_dict()
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in parallel.records
        ]
        assert parallel.stats.n_jobs == 4
        assert parallel.stats.completed == 24

    def test_seed_changes_plan(self):
        campaign = make_campaign()
        plan_a = [site_key(s) for s in campaign.sample_trials(16, seed=0)]
        plan_b = [site_key(s) for s in campaign.sample_trials(16, seed=1)]
        assert plan_a != plan_b
        assert plan_a == [site_key(s) for s in campaign.sample_trials(16, seed=0)]


class TestCheckpoint:
    def test_resume_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        reference = make_campaign().run(20, seed=3)

        class Abort(Exception):
            pass

        def bomb(index, record, remaining=[8]):
            remaining[0] -= 1
            if remaining[0] == 0:
                raise Abort

        with pytest.raises(Abort):
            make_campaign().run(20, seed=3, checkpoint_path=path, on_trial=bomb)

        resumed = make_campaign().run(20, seed=3, checkpoint_path=path, n_jobs=2)
        assert resumed.stats.resumed == 8
        assert resumed.stats.completed == 12
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in reference.records
        ]

    def test_mismatched_fingerprint_discarded(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        header = {
            "version": 1,
            "fingerprint": "not-this-campaign",
            "n_trials": 20,
            "seed": 3,
        }
        path.write_text(json.dumps(header) + "\n")
        result = make_campaign().run(20, seed=3, checkpoint_path=str(path))
        assert result.stats.resumed == 0
        assert result.stats.completed == 20
        # the stale file was replaced with this campaign's header
        first = json.loads(path.read_text().splitlines()[0])
        campaign = make_campaign()
        assert first["fingerprint"] == campaign_fingerprint(campaign, 20, 3)

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with pytest.raises(RuntimeError):
            make_campaign().run(
                20,
                seed=3,
                checkpoint_path=path,
                on_trial=lambda i, r: (_ for _ in ()).throw(RuntimeError)
                if i >= 9
                else None,
            )
        with open(path, "a") as fh:
            fh.write('{"i": 15, "site_index"')  # torn write from a kill
        resumed = make_campaign().run(20, seed=3, checkpoint_path=path)
        assert resumed.stats.resumed + resumed.stats.completed == 20
        reference = make_campaign().run(20, seed=3)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in reference.records
        ]

    def test_fingerprint_sensitivity(self):
        campaign = make_campaign()
        base = campaign_fingerprint(campaign, 20, 3)
        assert campaign_fingerprint(campaign, 21, 3) != base
        assert campaign_fingerprint(campaign, 20, 4) != base
        assert campaign_fingerprint(make_campaign(), 20, 3) == base


class TestTrialRecordSerialization:
    def test_round_trip(self):
        campaign = make_campaign()
        result = campaign.run(10, seed=1)
        module = campaign.interp.module
        eligible = injectable_instructions(module)
        for record in result.records:
            data = record.to_dict()
            json.dumps(data)  # must be JSON-compatible
            back = TrialRecord.from_dict(data, module)
            assert back.site.instruction is record.site.instruction
            assert record_key(back) == record_key(record)
            # bulk form takes the precomputed site list
            again = TrialRecord.from_dict(data, eligible)
            assert again.site.instruction is record.site.instruction

    def test_opcode_mismatch_rejected(self):
        campaign = make_campaign()
        result = campaign.run(4, seed=1)
        data = result.records[0].to_dict()
        data["opcode"] = "definitely-not-an-opcode"
        with pytest.raises(ValueError):
            TrialRecord.from_dict(data, campaign.interp.module)


class TestStats:
    def test_recording_and_snapshot(self):
        stats = CampaignStats(n_trials=10, n_jobs=2)
        for _ in range(4):
            stats.record(Outcome.MASKED, 0.010)
        stats.record(Outcome.SOC, 1.5)
        stats.finish()
        assert stats.completed == 5
        assert stats.outcome_counts == {"masked": 4, "soc": 1}
        assert stats.mean_latency("masked") == pytest.approx(0.010)
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.remaining == 5
        snapshot = stats.as_dict()
        json.dumps(snapshot)
        assert snapshot["outcomes"] == {"masked": 4, "soc": 1}
        assert sum(snapshot["latency_histograms"]["masked"]) == 4
        assert "trials/s" in stats.progress_line()


class TestCacheKeys:
    def test_sanitized_keys_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IPAS_CACHE_DIR", str(tmp_path))
        assert cache._path_for("eval-a/b") != cache._path_for("eval-a:b")

    def test_safe_keys_keep_historical_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IPAS_CACHE_DIR", str(tmp_path))
        path = cache._path_for("fulleval-fft-default-s0")
        assert path.name == f"v{cache.SCHEMA_VERSION}-fulleval-fft-default-s0.json"

    def test_distinct_raw_keys_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IPAS_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("IPAS_NO_CACHE", raising=False)
        cache.store("exp/one", {"v": 1})
        cache.store("exp:one", {"v": 2})
        assert cache.load("exp/one") == {"v": 1}
        assert cache.load("exp:one") == {"v": 2}
