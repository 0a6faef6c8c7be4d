"""Tests for fault injection into parallel (simulated MPI) jobs."""

import random

import pytest

from repro.faults import CampaignCheckpoint, MpiCampaign, Outcome, TrialPlan
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.workloads import get_workload

RANKS = 3
TRIALS = 30

#: ``f"{rank}{outcome[0]}{status[0]}"`` per trial of ``is`` at 3 ranks, 30
#: trials, by seed: the records of the pre-engine MPI loop, which the
#: shared campaign engine must reproduce at every job count.
PINNED = {
    5: "2mo 2mo 2mo 2mo 0mo 2ct 1ct 0mo 0ct 0ct 2mo 0mo 0mo 2ct 1ct "
       "0ct 2ct 0ct 0ct 0mo 2mo 1so 1mo 1ct 0ct 2mo 0mo 2mo 1mo 1so",
    9: "1ct 0mo 2ct 1mo 1mo 0ct 2so 0mo 0mo 2ct 2so 2ct 2mo 2ct 2mo "
       "0so 0so 2mo 2ct 0mo 1mo 0ct 1mo 0mo 1so 1ct 0so 2ct 0so 0ct",
}


@pytest.fixture(scope="module")
def workload():
    return get_workload("is")


def make_campaign(workload, ranks=RANKS):
    job = workload.make_job(ranks, 1)
    return MpiCampaign(
        job, verifier=workload.verifier(), budget_factor=workload.budget_factor
    )


@pytest.fixture(scope="module")
def campaign(workload):
    c = make_campaign(workload)
    c.prepare()
    return c


def plan_entries(campaign, result):
    """The result's canonical checkpoint entries, in trial order."""
    plan = TrialPlan(campaign, len(result.records), result.seed)
    return [plan.entry(i, record) for i, record in enumerate(result.records)]


def checkpoint_entries(campaign, path, n_trials, seed):
    saved = CampaignCheckpoint(
        path, campaign.fingerprint(n_trials, seed), n_trials, seed
    ).load(strict=True)
    return [
        {k: v for k, v in saved[i].items() if k != "crc"} for i in range(n_trials)
    ]


class TestMpiCampaign:
    def test_golden_run_and_population(self, campaign):
        assert campaign.golden_cycles > 0
        assert campaign._total_weight > 0

    def test_sampling_covers_multiple_ranks(self, campaign):
        rng = random.Random(0)
        ranks = {campaign.sample_site(rng).rank for _ in range(60)}
        assert len(ranks) > 1  # faults land in different ranks

    def test_outcomes_classified(self, campaign):
        result = campaign.run(TRIALS, seed=5)
        assert result.counts.total == TRIALS
        # Unprotected: never "detected"; some faults must propagate somehow.
        assert result.counts.detected_fraction == 0.0
        assert (
            result.counts.symptom_fraction
            + result.counts.masked_fraction
            + result.counts.soc_fraction
        ) == pytest.approx(1.0)

    def test_deterministic(self, campaign):
        r1 = campaign.run(15, seed=9)
        r2 = campaign.run(15, seed=9)
        assert [x.outcome for x in r1.records] == [x.outcome for x in r2.records]
        assert [x.site.rank for x in r1.records] == [x.site.rank for x in r2.records]

    def test_protected_job_detects_across_ranks(self, workload):
        module = workload.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        job = workload.make_job(RANKS, 1, module=module)
        campaign = MpiCampaign(
            job, verifier=workload.verifier(), budget_factor=workload.budget_factor
        )
        result = campaign.run(TRIALS, seed=5)
        # A detection on any rank surfaces as a job-level detection.
        assert result.counts.detected_fraction > 0.2
        assert result.counts.soc_fraction <= 0.1
        detected_ranks = {
            r.site.rank for r in result.records if r.outcome is Outcome.DETECTED
        }
        assert detected_ranks  # at least one rank caught a fault

    def test_parallel_shape_matches_serial(self, workload, campaign):
        """Job-level outcome mix tracks the serial campaign's shape."""
        from repro.faults import Campaign

        serial = Campaign(
            workload.make_interpreter(1),
            verifier=workload.verifier(),
            budget_factor=workload.budget_factor,
        ).run(TRIALS, seed=5)
        parallel = campaign.run(TRIALS, seed=5)
        # Masking dominates SOC in both worlds.
        assert serial.counts.masked_fraction > serial.counts.soc_fraction
        assert parallel.counts.masked_fraction > parallel.counts.soc_fraction


class TestMpiEngine:
    """MPI campaigns run on the shared engine: same records as the old
    loop, plus checkpoint/resume and job-count independence."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_records_match_pinned(self, campaign, seed, n_jobs):
        result = campaign.run(TRIALS, seed=seed, n_jobs=n_jobs)
        got = " ".join(
            f"{r.site.rank}{r.outcome.value[0]}{r.status[0]}" for r in result.records
        )
        assert got == PINNED[seed]

    def test_entries_independent_of_job_count(self, campaign):
        serial = plan_entries(campaign, campaign.run(16, seed=3, n_jobs=1))
        assert plan_entries(campaign, campaign.run(16, seed=3, n_jobs=2)) == serial

    @pytest.mark.parametrize("k", [1, 9])
    def test_interrupted_resume_matches_uninterrupted(self, workload, campaign, tmp_path, k):
        path = str(tmp_path / "mpi.ckpt")
        reference = plan_entries(campaign, campaign.run(TRIALS, seed=5))

        class Abort(Exception):
            pass

        def bomb(index, record, seen=[]):
            seen.append(index)
            if len(seen) == k:
                raise Abort

        with pytest.raises(Abort):
            make_campaign(workload).run(
                TRIALS, seed=5, checkpoint_path=path, on_trial=bomb
            )
        fresh = make_campaign(workload)
        resumed = fresh.run(TRIALS, seed=5, checkpoint_path=path, n_jobs=2)
        assert resumed.stats.resumed == k
        assert resumed.stats.completed == TRIALS - k
        assert plan_entries(fresh, resumed) == reference
        assert checkpoint_entries(fresh, path, TRIALS, 5) == reference

    def test_fingerprint_depends_on_rank_count(self, workload, campaign):
        three = campaign.fingerprint(TRIALS, 5)
        assert make_campaign(workload, 3).fingerprint(TRIALS, 5) == three
        assert make_campaign(workload, 2).fingerprint(TRIALS, 5) != three


class TestMpiRefusals:
    """Knobs a multi-rank campaign cannot honour are refused at
    construction, never run as a silent subset."""

    def test_warm_start_refused(self, workload):
        with pytest.raises(NotImplementedError, match="warm-start"):
            MpiCampaign(workload.make_job(2, 1), warm_start=True)

    def test_non_default_fault_model_refused(self, workload):
        with pytest.raises(NotImplementedError, match="transient-1bit"):
            MpiCampaign(workload.make_job(2, 1), fault_model="persistent")
