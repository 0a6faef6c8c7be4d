"""Tests for the parallel campaign engine (determinism, checkpointing, stats).

The engine's contract is that a campaign is a pure function of (module,
input, seed): pre-sampling the trial plan serially makes outcomes
bit-identical for every worker count, checkpoint resume included
(``tests/test_determinism.py`` holds every knob to it).
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
    TrialPlan,
    WorkerFailureError,
    campaign_fingerprint,
    fork_available,
    resolve_jobs,
)
from repro.faults.parallel import record_from_entry
from repro.interp import Interpreter
from tests.test_determinism import Combo, check
from tests.test_service import KERNEL


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

    def test_parallel_matches_serial(self, tmp_path):
        check(Combo(trials=24, seed=7, executor="pool", jobs=4), tmp_path)

    @pytest.mark.skipif(not fork_available(), reason="needs the fork pool")
    def test_mismatched_pool_result_is_refused(self, monkeypatch):
        """A pool worker's result that disagrees with its planned trial
        aborts the campaign with an error naming the trial."""
        entry = TrialPlan.entry

        def skewed(self, index, record):
            data = entry(self, index, record)
            if index == 5:
                data["bit"] ^= 1
            return data

        monkeypatch.setattr(TrialPlan, "entry", skewed)  # the workers inherit it
        with pytest.raises(WorkerFailureError, match="trial 5"):
            make_campaign().run(12, seed=7, n_jobs=2)

    def test_seed_changes_plan(self):
        campaign = make_campaign()
        plan_a = [site_key(s) for s in campaign.sample_trials(16, seed=0)]
        plan_b = [site_key(s) for s in campaign.sample_trials(16, seed=1)]
        assert plan_a != plan_b
        assert plan_a == [site_key(s) for s in campaign.sample_trials(16, seed=0)]


class TestCheckpoint:
    def test_resume_matches_uninterrupted(self, tmp_path):
        check(Combo(trials=20, seed=3, resume_at=8, executor="pool"), tmp_path)

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
        plan = TrialPlan(campaign, 10, 1)
        for i, record in enumerate(result.records):
            entry = plan.entry(i, record)
            assert json.loads(json.dumps(entry)) == entry  # JSON-compatible
            back = record_from_entry(entry, plan.sites[i], "test")
            assert back.site.instruction is record.site.instruction
            assert record_key(back) == record_key(record)
            assert plan.entry(i, back) == entry

    def test_mismatched_entry_not_adopted(self):
        """An entry whose site disagrees with its plan slot is refused (the
        trial re-runs); the matching ones are restored."""
        campaign = make_campaign()
        result = campaign.run(4, seed=1)
        plan = TrialPlan(campaign, 4, 1)
        entries = [plan.entry(i, r) for i, r in enumerate(result.records)]
        foreign = dict(entries[0], site_index=entries[0]["site_index"] + 1)
        plan.open()
        assert plan.accept([foreign] + entries[1:], 0.0, "test") == [1, 2, 3]
        assert plan.records[0] is None
        assert [record_key(r) for r in plan.records[1:]] == [
            record_key(r) for r in result.records[1:]
        ]
        assert plan.stats.completed == 3
        assert plan.accept(entries[1:2], 0.0, "test") == []  # already held


class TestStats:
    def test_recording_and_snapshot(self):
        stats = CampaignStats(n_trials=10, n_jobs=2)
        for _ in range(4):
            stats.record(Outcome.MASKED, 0.010)
        stats.record(Outcome.SOC, 1.5)
        stats.finish()
        assert stats.completed == 5
        assert stats.outcome_counts == {"masked": 4, "soc": 1}
        masked = stats.registry.histogram("ipas_trial_latency_ms", outcome="masked")
        assert masked.mean == pytest.approx(10.0)
        assert sum(masked.counts) == 4
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.remaining == 5
        snapshot = json.loads(json.dumps(stats.registry.as_dict()))
        assert [
            (s["labels"]["outcome"], s["value"])
            for s in snapshot["ipas_trials_total"]["samples"]
        ] == [("masked", 4), ("soc", 1)]
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
