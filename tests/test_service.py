"""Campaign-as-a-service suite: coordinator, workers, journal, chaos.

The service's contract extends the parallel engine's: outcome records a
coordinator commits — through socket workers, through its own serial
fallback, across dropped acks, delayed replies, connection resets, and a
kill/restart of the coordinator itself — are bit-identical to a cold
in-process campaign.  These tests assert that contract end to end, plus
the at-most-once commit gate and the write-ahead job journal underneath;
``tests/test_determinism.py`` runs the solo and worker executors under
the other knobs (warm start, fault models, recovery) through
``ServerThread`` and ``start_worker``.
"""

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import compile_source
from repro.faults import Campaign, CampaignSpec, TrialPlan, run_campaign
from repro.faults.chaos import (
    CHAOS_EXIT_CODE,
    ServiceChaos,
    parse_service_chaos_spec,
    validate_service_chaos_spec,
)
from repro.faults.models import validate_fault_model_spec
from repro.interp import Interpreter
from repro.service import CoordinatorServer, JobJournal, ServiceClient, ServiceError
from repro.service.client import parse_connect, read_port_file
from repro.service.protocol import ProtocolError
from repro.service.worker import run_worker

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


def make_spec(**overrides):
    spec = {"source": KERNEL, "name": "kernel", "trials": N_TRIALS, "seed": SEED}
    spec.update(overrides)
    return spec


def inprocess_entries(spec):
    """In-process ``run_campaign`` on the same spec, as wire entries."""
    parsed = CampaignSpec.from_json(spec)
    campaign = parsed.build()
    result = run_campaign(campaign, parsed.trials, seed=parsed.seed)
    plan = TrialPlan(campaign, parsed.trials, parsed.seed)
    return [plan.entry(i, record) for i, record in enumerate(result.records)]


def wire_bytes(entries):
    return json.dumps(entries, sort_keys=True).encode()


@pytest.fixture(scope="module")
def baseline_entries():
    """The cold in-process campaign, as canonical wire entries."""
    return inprocess_entries(make_spec())


class ServerThread:
    """A coordinator on its own event loop in a daemon thread."""

    def __init__(self, journal_dir, **kwargs):
        self.server = CoordinatorServer(journal_dir, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.started = threading.Event()
        self.error = None

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surfaced by start()
            self.error = exc
            self.started.set()
            self.loop.close()
            return
        self.started.set()
        self.loop.run_until_complete(self.server.wait_closed())
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def start(self):
        self.thread.start()
        assert self.started.wait(30), "coordinator failed to start"
        if self.error is not None:
            raise self.error
        return self.server.port

    def stop(self):
        if self.thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
            except RuntimeError:
                pass
        self.thread.join(30)
        assert not self.thread.is_alive(), "coordinator thread leaked"


@pytest.fixture
def serve(tmp_path):
    """Factory: start a coordinator; all started servers stop at teardown."""
    servers = []

    def _serve(**kwargs):
        kwargs.setdefault("solo_grace", 0.05)
        st = ServerThread(str(tmp_path / "journal"), **kwargs)
        st.start()
        servers.append(st)
        return st

    yield _serve
    for st in servers:
        st.stop()


def robust_wait(port, job, timeout=60.0):
    """Poll job state with a fresh connection per poll; chaos-tolerant."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(port=port, timeout=5.0) as client:
                last = client.status(job)
                if last.get("state") in ("done", "failed"):
                    return last
        except (ServiceError, OSError, ProtocolError):
            pass
        time.sleep(0.05)
    raise TimeoutError(f"job {job} not terminal after {timeout}s (last: {last})")


def robust_results(port, job):
    for _ in range(40):
        try:
            with ServiceClient(port=port, timeout=10.0) as client:
                return client.results(job)
        except (ServiceError, OSError, ProtocolError):
            time.sleep(0.05)
    raise TimeoutError(f"could not fetch results for {job}")


def start_worker(port, **kwargs):
    """run_worker in a daemon thread; returns a dict with its exit code."""
    kwargs.setdefault("ack_timeout", 5.0)
    kwargs.setdefault("reconnect_attempts", 40)
    out = {"code": None}

    def _run():
        out["code"] = run_worker("127.0.0.1", port, **kwargs)

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    out["thread"] = thread
    return out


class TestSoloExecution:
    def test_solo_run_bit_identical(self, serve, baseline_entries):
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            reply = client.submit(make_spec())
            assert reply["disposition"] == "submitted"
            job = reply["job"]
            status = client.wait(job)
            assert status["state"] == "done"
            assert client.results(job) == baseline_entries
            metrics = client.metrics()
        solo = metrics["ipas_service_solo_trials_total"]["samples"][0]["value"]
        assert solo == N_TRIALS

    def test_resubmit_is_cached_and_identical(self, serve, baseline_entries):
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
            client.wait(job)
            again = client.submit(make_spec())
            assert again["disposition"] == "cached"
            assert again["job"] == job
            assert client.results(job) == baseline_entries
            metrics = client.metrics()
        # The second submit re-executed nothing.
        committed = metrics["ipas_service_trials_committed_total"]["samples"]
        assert committed[0]["value"] == N_TRIALS
        assert metrics["ipas_service_jobs_cached_total"]["samples"][0]["value"] == 1

    def test_renamed_source_spec_leaves_the_checkpoint_alone(self, serve):
        """A source spec that differs only in ``name`` reaches a finished
        job's fingerprint: it is answered from that job, and the job's
        checkpoint is neither reopened nor rewritten."""
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec(name="a"))["job"]
            assert client.wait(job)["state"] == "done"
            path = st.server.journal.job_path(job)
            with open(path, "rb") as fh:
                before = fh.read(), os.stat(path).st_mtime_ns
            again = client.submit(make_spec(name="b"))
            assert (again["disposition"], again["job"]) == ("cached", job)
        with open(path, "rb") as fh:
            after = fh.read(), os.stat(path).st_mtime_ns
        assert after == before
        header = json.loads(after[0].splitlines()[0])
        resumed = header["stats"]["ipas_trials_resumed_total"]["samples"]
        assert resumed == [{"labels": {}, "value": 0}]

    def test_concurrent_duplicate_submit_attaches(self, serve):
        st = serve(solo_grace=0.3)  # build finishes well before trials start
        with ServiceClient(port=st.server.port) as a, ServiceClient(
            port=st.server.port
        ) as b:
            first = a.submit(make_spec())
            second = b.submit(make_spec())
            assert first["job"] == second["job"]
            assert second["disposition"] in ("attached", "cached")
            status = a.wait(first["job"])
            assert status["done"] == N_TRIALS
            metrics = a.metrics()
        assert (
            metrics["ipas_service_trials_committed_total"]["samples"][0]["value"]
            == N_TRIALS
        ), "duplicate submission must never re-execute trials"

    def test_watch_streams_progress_to_done(self, serve):
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
            events = list(client.watch(job))
        assert events[-1].get("op") == "done" or events[-1].get("state") == "done"
        assert sum(1 for e in events if e.get("op") == "progress") >= 1

    def test_bad_spec_is_refused(self, serve):
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            with pytest.raises(ServiceError, match="trials"):
                client.submit({"source": KERNEL, "trials": 0})
            with pytest.raises(ServiceError, match="workload"):
                client.submit({"trials": 5})

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trials": True}, "trials"),
            ({"seed": False}, "seed"),
            ({"protect": "full", "recover": "no"}, "recover"),
            ({"recover": True}, "recover"),  # protect 'none': no checks
            ({"source": None, "workload": "fft", "input": 9}, "input"),
            ({"budget_factor": "2"}, "budget_factor"),
            ({"budget_factor": 0}, "budget_factor"),
            ({"budget_factor": -1.5}, "budget_factor"),
        ],
    )
    def test_shown_spec_defects_refused_naming_the_key(self, serve, overrides, key):
        spec = {k: v for k, v in make_spec(**overrides).items() if v is not None}
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            with pytest.raises(ServiceError, match=f"'{key}'"):
                client.submit(spec)
            assert client.status()["jobs"] == []  # nothing was built

    @pytest.mark.parametrize("bad", ["chaos", "transient-multibit:boom=1"])
    def test_malformed_fault_model_refused_like_inject(self, serve, bad):
        with pytest.raises(ValueError) as inject_error:
            validate_fault_model_spec(bad)  # what inject --fault-model prints
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            with pytest.raises(ServiceError, match="'fault_model'") as excinfo:
                client.submit(make_spec(fault_model=bad))
        assert str(inject_error.value) in str(excinfo.value)


class TestWorkerExecution:
    def test_worker_run_bit_identical(self, serve, baseline_entries):
        st = serve(solo=False)
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
            worker = start_worker(st.server.port, idle_exit=0.4)
            assert client.wait(job)["state"] == "done"
            assert client.results(job) == baseline_entries
            metrics = client.metrics()
        assert metrics["ipas_service_worker_connects_total"]["samples"][0]["value"] >= 1
        assert metrics["ipas_service_leases_granted_total"]["samples"][0]["value"] >= 3
        assert "ipas_service_solo_trials_total" not in metrics
        worker["thread"].join(30)
        assert worker["code"] == 0  # clean idle exit

    def test_dropped_ack_requeues_and_stays_identical(
        self, serve, tmp_path, baseline_entries
    ):
        chaos = ServiceChaos(
            drop_ack_at=[1], state_dir=str(tmp_path / "chaos-state")
        )
        st = serve(solo=False, chaos=chaos)
        start_worker(st.server.port, ack_timeout=1.0, idle_exit=0.4)
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
        status = robust_wait(st.server.port, job)
        assert status["state"] == "done"
        assert robust_results(st.server.port, job) == baseline_entries
        with ServiceClient(port=st.server.port) as client:
            metrics = client.metrics()
        # The dropped chunk was requeued, and the worker's resent ack hit
        # the at-most-once gate.
        assert metrics["ipas_service_leases_requeued_total"]["samples"][0]["value"] >= 1
        assert metrics["ipas_service_acks_discarded_total"]["samples"][0]["value"] >= 1

    def test_delayed_responses_stay_identical(
        self, serve, tmp_path, baseline_entries
    ):
        state = str(tmp_path / "chaos-state")
        chaos = ServiceChaos(delay_response_at={2: 0.4, 4: 0.4}, state_dir=state)
        st = serve(solo=False, chaos=chaos)
        start_worker(st.server.port, idle_exit=0.4)
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
        assert robust_wait(st.server.port, job)["state"] == "done"
        assert robust_results(st.server.port, job) == baseline_entries
        assert any(f.startswith("delay-") for f in os.listdir(state))

    def test_connection_reset_stays_identical(
        self, serve, tmp_path, baseline_entries
    ):
        state = str(tmp_path / "chaos-state")
        chaos = ServiceChaos(reset_at=[4], state_dir=state)
        st = serve(solo=False, chaos=chaos)
        start_worker(st.server.port, ack_timeout=2.0, idle_exit=0.4)
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(make_spec())["job"]
        assert robust_wait(st.server.port, job)["state"] == "done"
        assert robust_results(st.server.port, job) == baseline_entries
        assert any(f.startswith("reset-") for f in os.listdir(state))

    def test_out_of_order_seq_kills_connection(self, serve):
        st = serve()
        from repro.service.protocol import Channel

        with Channel("127.0.0.1", st.server.port, timeout=5.0) as chan:
            chan.send({"op": "hello", "role": "worker", "seq": 1})
            assert chan.recv(5.0)["ok"]
            chan.send({"op": "lease", "seq": 7})  # gap: expected 2
            reply = chan.recv(5.0)
            assert not reply["ok"]
            assert "out-of-order" in reply["error"]
            assert chan.recv(5.0) is None  # coordinator hung up


class TestKillRestart:
    """The flagship drill: kill the coordinator mid-campaign, restart it
    on the same journal, and demand bit-identical results."""

    def _serve_argv(self, journal, port_file, extra=()):
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--journal",
            journal,
            "--port-file",
            port_file,
            "--solo-grace",
            "0.05",
            "--chunk",
            "4",
            "--quiet",
            *extra,
        ]

    def _env(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_kill_restart_resumes_bit_identical(self, tmp_path, baseline_entries):
        journal = str(tmp_path / "journal")
        port_file = str(tmp_path / "port")
        proc = subprocess.Popen(
            self._serve_argv(journal, port_file, ["--chaos", "kill@6"]),
            env=self._env(),
        )
        try:
            port = read_port_file(port_file, timeout=30.0)
            with ServiceClient(port=port) as client:
                job = client.submit(make_spec())["job"]
            # The 6th trial commit pulls the trigger: with --chunk 4 the
            # second chunk is already durable when the process dies.
            assert proc.wait(timeout=60) == CHAOS_EXIT_CODE
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Same journal, same chaos spec: the fire-once marker persisted,
        # so the restart must NOT re-fire, and must resume the job.
        os.unlink(port_file)
        proc = subprocess.Popen(
            self._serve_argv(journal, port_file, ["--chaos", "kill@6"]),
            env=self._env(),
        )
        try:
            port = read_port_file(port_file, timeout=30.0)
            status = robust_wait(port, job)
            assert status["state"] == "done"
            assert status["resumed"] >= 4, "durable trials must not re-run"
            assert robust_results(port, job) == baseline_entries
            # The job's stats survived the kill in its checkpoint header:
            # the restart absorbed them, so they count every trial once.
            with open(os.path.join(journal, f"{job}.jsonl")) as fh:
                header = json.loads(fh.readline())
            outcomes = {}
            for sample in header["stats"]["ipas_trials_total"]["samples"]:
                outcomes[sample["labels"]["outcome"]] = sample["value"]
            expected = {}
            for entry in baseline_entries:
                expected[entry["outcome"]] = expected.get(entry["outcome"], 0) + 1
            assert outcomes == expected
            assert header["stats"]["ipas_trials_resumed_total"]["samples"][0][
                "value"
            ] == status["resumed"]
            # A duplicate submit after recovery is answered from the
            # finished job, never re-executed.
            with ServiceClient(port=port) as client:
                again = client.submit(make_spec())
                assert again["disposition"] == "cached"
                assert again["job"] == job
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestFinishedJobRestart:
    @pytest.mark.parametrize(
        "fault_model", ["transient-1bit", "transient-multibit:k=2"]
    )
    def test_restart_serves_finished_job_from_checkpoint(self, serve, fault_model):
        """A coordinator restarted on the journal of a finished job, of
        any fault model, starts and serves the job from its checkpoint
        without re-executing a trial."""
        spec = make_spec(trials=6, fault_model=fault_model)
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            job = client.submit(spec)["job"]
            assert client.wait(job)["state"] == "done"
            entries = client.results(job)
        st.stop()
        assert wire_bytes(entries) == wire_bytes(inprocess_entries(spec))
        st = serve()  # replays the journal: the job is done
        assert st.server.jobs[job].state == "done"
        with ServiceClient(port=st.server.port) as client:
            again = client.submit(spec)
            assert (again["disposition"], again["job"]) == ("cached", job)
            assert wire_bytes(client.results(job)) == wire_bytes(entries)
        assert st.server.jobs[job].summary()["resumed"] == 6


class TestJobJournal:
    def test_roundtrip_and_done_marker(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.open()
        journal.record_job("abc", {"trials": 2})
        journal.record_job("xyz", {"trials": 3})
        journal.record_done("abc")
        journal.close()
        loaded = JobJournal(str(tmp_path)).load()
        assert loaded["abc"] == {"spec": {"trials": 2}, "done": True}
        assert loaded["xyz"] == {"spec": {"trials": 3}, "done": False}

    def test_torn_tail_skipped(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.open()
        journal.record_job("abc", {"trials": 2})
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"op": "job", "job": "torn", "spe')  # crash mid-write
        loaded = JobJournal(str(tmp_path)).load()
        assert set(loaded) == {"abc"}

    def test_crc_damaged_line_skipped(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.open()
        journal.record_job("abc", {"trials": 2})
        journal.record_job("def", {"trials": 3})
        journal.close()
        with open(journal.path) as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0].replace('"trials": 2', '"trials": 9')
        with open(journal.path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        loaded = JobJournal(str(tmp_path)).load()
        assert set(loaded) == {"def"}

    def test_missing_file_is_empty(self, tmp_path):
        assert JobJournal(str(tmp_path / "fresh")).load() == {}


class TestSpecs:
    def test_canonical_spec_fills_defaults_and_sorts(self):
        a = CampaignSpec.from_json({"source": KERNEL, "trials": 5}).canonical()
        b = CampaignSpec.from_json(
            {"trials": 5, "source": KERNEL, "seed": 0}
        ).canonical()
        assert a == b
        assert json.loads(a)["protect"] == "none"

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="workload"):
            CampaignSpec.from_json({"trials": 5})
        with pytest.raises(ValueError, match="trials"):
            CampaignSpec.from_json({"source": KERNEL, "trials": -1})
        with pytest.raises(ValueError, match="protect"):
            CampaignSpec.from_json({"source": KERNEL, "trials": 5, "protect": "most"})
        with pytest.raises(ValueError):
            CampaignSpec.from_json({"source": KERNEL, "workload": "fft", "trials": 5})

    def test_build_campaign_source_form(self):
        campaign = CampaignSpec.from_json({"source": KERNEL, "trials": 4}).build()
        campaign.prepare()
        assert campaign.sample_trials(4, 0)


class TestParentJournalReplay:
    """A journal and job checkpoints written in the previous coordinator's
    spec format — its defaults filled in, no ``warm_start``,
    ``snapshot_stride`` or ``fault_model`` keys — replay unchanged."""

    @staticmethod
    def parent_spec(seed):
        return {
            "input": 1, "max_rollbacks": 8, "name": "kernel", "protect": "none",
            "recover": False, "seed": seed, "snapshot_period": 0,
            "source": KERNEL, "trials": N_TRIALS,
        }

    def test_done_job_cached_and_inflight_job_resumed(
        self, serve, tmp_path, baseline_entries
    ):
        journal = JobJournal(str(tmp_path / "journal"))
        journal.open()
        kept = {SEED: N_TRIALS, SEED + 1: 10}  # done job, in-flight job
        job_of = {}
        for seed, keep in kept.items():
            campaign = Campaign(Interpreter(compile_source(KERNEL, name="kernel")))
            job = job_of[seed] = campaign.fingerprint(N_TRIALS, seed)
            path = journal.job_path(job)
            campaign.run(N_TRIALS, seed=seed, checkpoint_path=path)
            with open(path) as fh:
                lines = fh.read().splitlines()
            with open(path, "w") as fh:
                fh.write("\n".join(lines[: 1 + keep]) + "\n")
            journal.record_job(job, self.parent_spec(seed))
            if keep == N_TRIALS:
                journal.record_done(job)
        journal.close()

        st = serve()  # replays the journal at start
        with ServiceClient(port=st.server.port) as client:
            done = client.submit(self.parent_spec(SEED))
            assert done["disposition"] == "cached"
            assert done["job"] == job_of[SEED]
            assert client.results(done["job"]) == baseline_entries
            inflight = job_of[SEED + 1]
            status = client.wait(inflight)
            assert status["state"] == "done"
            assert status["resumed"] == kept[SEED + 1]
            assert client.results(inflight) == inprocess_entries(
                self.parent_spec(SEED + 1)
            )
            metrics = client.metrics()
        assert (
            metrics["ipas_service_trials_committed_total"]["samples"][0]["value"]
            == N_TRIALS - kept[SEED + 1]
        )

    def test_refused_journaled_spec_fails_its_job_only(self, serve, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        journal.open()
        # admitted by the previous coordinator: "no" is truthy, and a
        # stride without warm start ran cold without a word
        refused = {"0123456789abcdef": make_spec(recover="no"),
                   "fedcba9876543210": make_spec(snapshot_stride=500)}
        for job, spec in refused.items():
            journal.record_job(job, spec)
        journal.close()
        st = serve()
        with ServiceClient(port=st.server.port) as client:
            for job, key in zip(refused, ["'recover'", "'snapshot_stride'"]):
                status = client.status(job)
                assert status["state"] == "failed"
                assert key in status["error"]
            job = client.submit(make_spec())["job"]
            assert client.wait(job)["state"] == "done"


class TestServiceChaosSpec:
    def test_parse_full_grammar(self, tmp_path):
        chaos = parse_service_chaos_spec(
            "kill@3,drop-ack@2,delay@4:0.25,reset@5",
            state_dir=str(tmp_path),
        )
        assert chaos.kill_at_commit == 3
        assert chaos.drop_ack_at == frozenset({2})
        assert chaos.delay_response_at == {4: 0.25}
        assert chaos.reset_at == frozenset({5})

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError, match="kaboom@3"):
            validate_service_chaos_spec("kill@1,kaboom@3")
        with pytest.raises(ValueError, match="delay@x"):
            validate_service_chaos_spec("delay@x:1")
        validate_service_chaos_spec("kill@1")  # no raise

    def test_fire_once_survives_restart(self, tmp_path):
        state = str(tmp_path / "state")
        first = ServiceChaos(drop_ack_at=[1], state_dir=state)
        assert first.on_ack() is True
        # A fresh incarnation pointed at the same state dir sees the
        # marker and does not re-fire the same ordinal.
        second = ServiceChaos(drop_ack_at=[1], state_dir=state)
        assert second.on_ack() is False


class TestClientHelpers:
    def test_parse_connect(self):
        assert parse_connect("1234") == ("127.0.0.1", 1234)
        assert parse_connect("10.0.0.5:81") == ("10.0.0.5", 81)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_connect("nope")

    def test_read_port_file_times_out(self, tmp_path):
        with pytest.raises(TimeoutError):
            read_port_file(str(tmp_path / "absent"), timeout=0.2)

    def test_read_port_file_polls_until_written(self, tmp_path):
        path = str(tmp_path / "port")

        def write_late():
            time.sleep(0.2)
            with open(path, "w") as fh:
                fh.write("4321\n")

        threading.Thread(target=write_late, daemon=True).start()
        assert read_port_file(path, timeout=10.0) == 4321
