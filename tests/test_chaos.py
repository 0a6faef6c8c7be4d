"""Determinism-under-failure suite: the chaos harness against the supervisor.

The parallel engine's contract is that campaign results are bit-identical
to an undisturbed serial run for any worker count.  These tests re-assert
that contract while the chaos harness kills workers mid-chunk, delays
chunks past the wall-clock deadline, corrupts checkpoint lines, and
collapses the pool entirely.
"""

import json
import os

import pytest

from repro import compile_source
from repro.faults import (
    Campaign,
    CampaignCheckpoint,
    CheckpointMismatchError,
    CheckpointWarning,
    Outcome,
    SupervisorPolicy,
    TrialFailure,
    campaign_fingerprint,
    fork_available,
    verify_checkpoint,
)
from repro.faults.chaos import ChaosMonkey, corrupt_checkpoint, parse_chaos_spec
from repro.faults.parallel import _seal
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

N_TRIALS = 24
SEED = 11

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="supervised pool needs the fork start method"
)


def make_campaign():
    return Campaign(Interpreter(compile_source(KERNEL, name="kernel")))


def record_key(record):
    return (
        record.site.instruction.opcode,
        record.site.occurrence,
        record.site.bit,
        record.outcome,
        record.status,
        record.cycles,
    )


@pytest.fixture(scope="module")
def serial_baseline():
    result = make_campaign().run(N_TRIALS, seed=SEED)
    return [record_key(r) for r in result.records]


def assert_identical(result, serial_baseline):
    assert [record_key(r) for r in result.records] == serial_baseline


@needs_fork
class TestWorkerDeath:
    def test_killed_worker_bit_identical(self, serial_baseline, tmp_path):
        chaos = ChaosMonkey(kill_at=[5], state_dir=str(tmp_path / "chaos"))
        result = make_campaign().run(N_TRIALS, seed=SEED, n_jobs=2, chaos=chaos)
        assert_identical(result, serial_baseline)
        stats = result.stats
        assert stats.worker_deaths >= 1
        assert stats.retries >= 1
        assert stats.harness_events > 0
        assert "deaths" in stats.progress_line()
        assert stats.as_dict()["harness"]["worker_deaths"] >= 1

    def test_two_kills_bit_identical(self, serial_baseline, tmp_path):
        # One kill in each worker's opening chunk: both die, the pool
        # empties, and at least one respawn is *required* to finish.
        chaos = ChaosMonkey(kill_at=[2, 9], state_dir=str(tmp_path / "chaos"))
        result = make_campaign().run(N_TRIALS, seed=SEED, n_jobs=2, chaos=chaos)
        assert_identical(result, serial_baseline)
        assert result.stats.worker_deaths >= 2
        assert result.stats.respawns >= 1
        assert not result.stats.serial_fallback

    def test_undisturbed_run_reports_no_harness_events(self, serial_baseline):
        result = make_campaign().run(N_TRIALS, seed=SEED, n_jobs=2)
        assert_identical(result, serial_baseline)
        stats = result.stats
        assert stats.harness_events == 0
        assert "deaths" not in stats.progress_line()


@needs_fork
class TestHungWorker:
    def test_hang_killed_and_retried(self, serial_baseline, tmp_path):
        # The sleep dwarfs any chunk deadline (1s/trial x chunk <= 12s... use
        # a sleep far past it); the retry skips the sleep (fire-once marker).
        chaos = ChaosMonkey(
            hang_at={6: 60.0}, state_dir=str(tmp_path / "chaos")
        )
        result = make_campaign().run(
            N_TRIALS, seed=SEED, n_jobs=2, trial_timeout=1.0, chaos=chaos
        )
        assert_identical(result, serial_baseline)
        stats = result.stats
        assert stats.hangs >= 1
        assert stats.worker_deaths >= 1


@needs_fork
class TestQuarantine:
    def test_poison_trial_quarantined(self, serial_baseline, tmp_path):
        # once=False: every attempt dies -> quarantine after max_retries.
        chaos = ChaosMonkey(
            kill_at=[9], once=False, state_dir=str(tmp_path / "chaos")
        )
        result = make_campaign().run(
            N_TRIALS, seed=SEED, n_jobs=2, max_retries=1, chaos=chaos
        )
        poisoned = result.records[9]
        assert poisoned.outcome is Outcome.TRIAL_FAILURE
        assert isinstance(poisoned.failure, TrialFailure)
        assert poisoned.failure.reason == "crash"
        assert poisoned.failure.attempts == 2  # initial + max_retries
        assert result.stats.quarantined == 1
        assert result.counts.counts[Outcome.TRIAL_FAILURE] == 1
        # Every other trial is untouched by the poison.
        keys = [record_key(r) for r in result.records]
        assert [k for i, k in enumerate(keys) if i != 9] == [
            k for i, k in enumerate(serial_baseline) if i != 9
        ]

    def test_quarantined_record_round_trips_via_checkpoint(self, tmp_path):
        chaos = ChaosMonkey(
            kill_at=[3], once=False, state_dir=str(tmp_path / "chaos")
        )
        path = str(tmp_path / "ck.jsonl")
        first = make_campaign().run(
            N_TRIALS, seed=SEED, n_jobs=2, max_retries=0,
            checkpoint_path=path, chaos=chaos,
        )
        assert first.records[3].outcome is Outcome.TRIAL_FAILURE
        resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert resumed.stats.resumed == N_TRIALS
        restored = resumed.records[3]
        assert restored.outcome is Outcome.TRIAL_FAILURE
        assert restored.failure.reason == first.records[3].failure.reason
        assert restored.failure.attempts == first.records[3].failure.attempts


@needs_fork
class TestPoolCollapse:
    def test_respawn_budget_exhausted_falls_back_to_serial(
        self, serial_baseline, tmp_path
    ):
        # Both workers die, zero respawns allowed: the pool collapses and
        # the campaign must finish in-process with identical results.
        policy = SupervisorPolicy(max_respawns=0)
        chaos = ChaosMonkey(kill_at=[2, 9], state_dir=str(tmp_path / "chaos"))
        result = make_campaign().run(
            N_TRIALS, seed=SEED, n_jobs=2, supervision=policy, chaos=chaos
        )
        assert_identical(result, serial_baseline)
        assert result.stats.serial_fallback
        assert result.stats.worker_deaths == 2

    def test_serial_policy_collapses_on_first_failure(
        self, serial_baseline, tmp_path
    ):
        chaos = ChaosMonkey(kill_at=[4], state_dir=str(tmp_path / "chaos"))
        result = make_campaign().run(
            N_TRIALS, seed=SEED, n_jobs=2, on_worker_failure="serial", chaos=chaos
        )
        assert_identical(result, serial_baseline)
        assert result.stats.serial_fallback
        assert result.stats.respawns == 0


@needs_fork
class TestAbortPolicy:
    def test_abort_raises(self, tmp_path):
        from repro.faults import WorkerFailureError

        chaos = ChaosMonkey(kill_at=[5], state_dir=str(tmp_path / "chaos"))
        with pytest.raises(WorkerFailureError):
            make_campaign().run(
                N_TRIALS, seed=SEED, n_jobs=2, on_worker_failure="abort", chaos=chaos
            )


class TestCheckpointCorruption:
    def _checkpointed_run(self, tmp_path, **kwargs):
        path = str(tmp_path / "ck.jsonl")
        result = make_campaign().run(
            N_TRIALS, seed=SEED, checkpoint_path=path, **kwargs
        )
        return path, result

    def test_garbled_line_detected_and_rerun(self, serial_baseline, tmp_path):
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="garble", line=4)
        campaign = make_campaign()
        with pytest.warns(CheckpointWarning, match="corrupted"):
            resumed = campaign.run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == N_TRIALS - 1

    def test_truncated_tail_dropped_and_rerun(self, serial_baseline, tmp_path):
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="truncate", line=-1)
        with pytest.warns(CheckpointWarning, match="torn"):
            resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == N_TRIALS - 1

    def test_garble_then_truncate_still_identical(self, serial_baseline, tmp_path):
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="garble", line=5)
        corrupt_checkpoint(path, mode="truncate", line=-1)
        with pytest.warns(CheckpointWarning):
            resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == N_TRIALS - 2

    def test_torn_header_discarded_and_rerun(self, serial_baseline, tmp_path):
        # Crash mid-write of the header itself (the stats-bearing line 0),
        # record lines intact: the whole file must be discarded — records
        # can't be trusted against an unverifiable fingerprint — and the
        # campaign re-runs from scratch, bit-identically.
        path, _ = self._checkpointed_run(tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.warns(CheckpointWarning, match="unreadable header"):
            resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == 0

    def test_garbled_header_discarded_and_rerun(self, serial_baseline, tmp_path):
        # A silent bit-flip inside the header (CRC mismatch, still valid
        # JSON) is treated exactly like a torn one.
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="garble", line=0)
        with pytest.warns(CheckpointWarning, match="unreadable header"):
            resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == 0

    def test_header_only_truncation(self, serial_baseline, tmp_path):
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="truncate", line=0)  # drops records too
        with pytest.warns(CheckpointWarning, match="unreadable header"):
            resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert_identical(resumed, serial_baseline)
        assert resumed.stats.resumed == 0

    def test_strict_resume_raises_on_torn_header(self, tmp_path):
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="garble", line=0)
        with pytest.raises(CheckpointMismatchError, match="unreadable header"):
            make_campaign().run(
                N_TRIALS, seed=SEED, checkpoint_path=path, strict_resume=True
            )

    def test_strict_resume_raises_on_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"version": 1, "fingerprint": "stale"}) + "\n")
        with pytest.raises(CheckpointMismatchError):
            make_campaign().run(
                N_TRIALS, seed=SEED, checkpoint_path=path, strict_resume=True
            )

    def test_resume_rewrite_cleans_corruption(self, tmp_path):
        # After a resume, the rewritten checkpoint no longer contains the
        # corrupted line (atomic rewrite drops what load() skipped).
        path, _ = self._checkpointed_run(tmp_path)
        corrupt_checkpoint(path, mode="garble", line=3)
        campaign = make_campaign()
        with pytest.warns(CheckpointWarning):
            campaign.run(N_TRIALS, seed=SEED, checkpoint_path=path)
        fingerprint = campaign_fingerprint(make_campaign(), N_TRIALS, SEED)
        report = verify_checkpoint(path, fingerprint=fingerprint)
        assert report["corrupted_lines"] == 0
        assert report["recoverable"] == N_TRIALS
        assert report["lost"] == 0


class TestVerifyCheckpoint:
    def test_reports_recoverable_and_lost(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        corrupt_checkpoint(path, mode="garble", line=2)
        fingerprint = campaign_fingerprint(make_campaign(), N_TRIALS, SEED)
        report = verify_checkpoint(
            path, fingerprint=fingerprint, n_trials=N_TRIALS, seed=SEED
        )
        assert report["header_ok"]
        assert report["fingerprint_ok"]
        assert report["corrupted_lines"] == 1
        assert report["recoverable"] == N_TRIALS - 1
        assert report["lost"] == 1

    def test_flags_foreign_fingerprint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        report = verify_checkpoint(path, fingerprint="somebody-else")
        assert report["header_ok"]
        assert report["fingerprint_ok"] is False

    def test_missing_file(self, tmp_path):
        report = verify_checkpoint(str(tmp_path / "absent.jsonl"))
        assert not report["exists"]
        assert report["error"]

    def test_report_agrees_with_load(self, tmp_path):
        """One damaged checkpoint, a CRC-damaged line, an out-of-range
        index, an unknown outcome and a torn tail: ``verify_checkpoint``
        reports what ``load`` restores and counts, and ``load`` refuses
        the unknown outcome naming ``path:line``."""
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path, n_jobs=1)
        with open(path) as fh:
            lines = fh.read().splitlines()
        entries = [json.loads(line) for line in lines[1:]]
        assert [e["i"] for e in entries] == list(range(N_TRIALS))

        def reseal(k, **fields):
            entry = dict(entries[k - 1], **fields)
            del entry["crc"]
            lines[k] = json.dumps(_seal(entry))

        known = lines[5]
        reseal(3, i=N_TRIALS)  # trial 2's line, its index out of range
        reseal(5, outcome="exotic")  # trial 4's line, an unknown outcome
        unknown = lines[5]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        corrupt_checkpoint(path, mode="garble", line=2)  # trial 1
        corrupt_checkpoint(path, mode="truncate", line=-1)  # the last trial
        fingerprint = campaign_fingerprint(make_campaign(), N_TRIALS, SEED)

        def verify():
            return verify_checkpoint(
                path, fingerprint=fingerprint, n_trials=N_TRIALS, seed=SEED
            )

        report = verify()
        assert (report["header_ok"], report["fingerprint_ok"]) == (True, True)
        assert report["unknown_outcomes"] == [{"line": 6, "outcome": "exotic"}]
        assert (report["corrupted_lines"], report["truncated_tail"]) == (2, True)
        assert (report["records"], report["recoverable"]) == (
            N_TRIALS - 3, N_TRIALS - 4
        )
        checkpoint = CampaignCheckpoint(path, fingerprint, N_TRIALS, SEED)
        with pytest.raises(ValueError, match=r"'exotic' \(checkpoint .*ck\.jsonl:6, "):
            checkpoint.load()

        # Mend the unknown outcome: load restores exactly the trials
        # verify counts as recoverable, and counts the same damage.
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(unknown, known))
        report = verify()
        assert report["unknown_outcomes"] == []
        with pytest.warns(CheckpointWarning):
            completed = checkpoint.load()
        assert sorted(completed) == sorted(set(range(N_TRIALS - 1)) - {1, 2})
        assert len(completed) == report["recoverable"] == report["records"]
        assert report["lost"] == N_TRIALS - len(completed)
        assert checkpoint.corrupted_lines == report["corrupted_lines"] == 2
        assert checkpoint.truncated_tail is report["truncated_tail"] is True

    def test_reports_unreadable_header(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        corrupt_checkpoint(path, mode="garble", line=0)
        report = verify_checkpoint(path)
        assert "unreadable header" in report["error"]


class TestInterruptResumability:
    def test_keyboard_interrupt_flushes_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        stop_after = 7

        def interrupter(index, record):
            if index == stop_after:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            make_campaign().run(
                N_TRIALS, seed=SEED, checkpoint_path=path, on_trial=interrupter
            )
        # Every delivered record — including any still in the write buffer
        # at interrupt time — must be on disk and CRC-clean.
        report = verify_checkpoint(path)
        assert report["header_ok"]
        assert report["corrupted_lines"] == 0
        assert report["recoverable"] == stop_after + 1
        resumed = make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        assert resumed.stats.resumed == stop_after + 1
        serial = make_campaign().run(N_TRIALS, seed=SEED)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in serial.records
        ]


class TestChaosSpec:
    def test_parse_kill_and_hang(self, tmp_path):
        monkey = parse_chaos_spec("kill@5,hang@9:2.5", state_dir=str(tmp_path))
        assert monkey.kill_at == frozenset([5])
        assert monkey.hang_at == {9: 2.5}
        assert monkey.once

    def test_parse_poison(self, tmp_path):
        monkey = parse_chaos_spec("kill@3!", state_dir=str(tmp_path))
        assert monkey.kill_at == frozenset([3])
        assert not monkey.once

    def test_parse_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError, match="bad chaos event"):
            parse_chaos_spec("explode@7", state_dir=str(tmp_path))

    def test_unarmed_monkey_is_inert(self, tmp_path):
        monkey = ChaosMonkey(kill_at=[0], state_dir=str(tmp_path))
        monkey.before_trial(0)  # parent process: must not exit

    def test_fire_once_is_cross_process(self, tmp_path):
        monkey = ChaosMonkey(hang_at={4: 0.0}, state_dir=str(tmp_path))
        monkey.arm()
        assert monkey._fire_once("hang", 4)
        clone = ChaosMonkey(hang_at={4: 0.0}, state_dir=str(tmp_path))
        clone.arm()
        assert not clone._fire_once("hang", 4)
