"""One determinism harness: every engine knob against the serial-cold reference.

IPAS trains and grades its classifier on fault-injection campaigns, so a
campaign's records must be a pure function of (module, input, seed, fault
model) under every engine knob.  Each example draws a :class:`Combo` of
knobs, runs it, and requires its ``TrialPlan.entry`` list, its checkpoint's
trial lines (when it writes one) and, with observability on, its
``registry.deterministic_snapshot()`` to equal those of ``Campaign.run`` on
the same spec at ``n_jobs=1``, cold and in-process, byte for byte.

A combination some knob cannot honour must raise the exception naming the
key of its :data:`REFUSED` row; :data:`EXAMPLES` holds one of each, and
:func:`combos` draws neither those nor the ones that cannot be expressed
(it says why).  Guards make sure each example took its path:
recovery corrects single-shot faults and never multi-shot ones, a warm run
restores, a chaos run loses a worker, a resumed run resumes, and no trial
resyncs where resync is off.  Suites that pinned one axis at a time keep
their named combinations as calls to :func:`check`.
"""

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import compile_source
from repro.faults import FAULT_MODELS, CampaignSpec, MpiCampaign, Outcome, TrialPlan
from repro.faults import fork_available
from repro.faults.chaos import ChaosMonkey
from repro.faults.models import get_fault_model
from repro.faults.spec import REFUSALS
from repro.obs import MetricsRegistry, Observation
from repro.parallel.mpi import MpiJob
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import RecoveryPolicy
from repro.service import ServiceClient
from repro.workloads import get_workload
from tests.test_service import KERNEL, ServerThread, start_worker

#: the kernel on more ranks: one collective
MPI_KERNEL = KERNEL.replace(
    "result[0] = work(x, n);", "result[0] = mpi_allreduce_sum(work(x, n));"
)
#: input -> (trials, seed) of the drawn examples, simplest first
INPUTS = {"kernel": (20, 11), "fft": (16, 3), "hpccg": (12, 3)}
EXECUTORS = tuple(e for e in ("serial", "pool", "solo", "worker")
                  if e != "pool" or fork_available())
#: off-default values of the knobs that only act with another one set
KNOBS = (("snapshot_stride", 150), ("max_rollbacks", 3), ("snapshot_period", 40))


@dataclass(frozen=True)
class Combo:
    """One combination of engine knobs; the defaults are the reference's."""

    input: str = "kernel"  # or a workload name
    trials: int = 20
    seed: int = 11
    ranks: int = 1
    model: str = "transient-1bit"
    protect: str = "none"
    recover: bool = False
    knob: Optional[tuple] = None  # (spec key, value), as in KNOBS
    warm: bool = False
    executor: str = "serial"  # or "pool", "solo", "worker"
    jobs: int = 2  # the fork pool's workers
    obs: bool = False
    resume_at: Optional[int] = None  # interrupted after this many trials
    chaos: bool = False  # one pool worker killed
    per_block: bool = False  # the per-block table in place of region code
    count_route: bool = False  # every trial counts, none trips

    def spec(self) -> dict:
        """The campaign's service JSON (ranks aside)."""
        data = {"trials": self.trials, "seed": self.seed, "fault_model": self.model,
                "protect": self.protect, "recover": self.recover,
                "warm_start": self.warm, **dict([self.knob] if self.knob else [])}
        if self.input != "kernel":
            return {**data, "workload": self.input}
        return {**data, "source": MPI_KERNEL if self.ranks > 1 else KERNEL}

    @property
    def reference(self) -> "Combo":
        """The serial, cold, in-process run of the same records."""
        knob = None if self.knob and self.knob[0] == "snapshot_stride" else self.knob
        return Combo(self.input, self.trials, self.seed, self.ranks, self.model,
                     self.protect, self.recover, knob)


def _spec_fields(combo):
    """The combination's spec fields, defaults filled in, unvalidated."""
    defaults = {f.name: f.default for f in fields(CampaignSpec)}
    return SimpleNamespace(**{**defaults, **combo.spec()})


#: every refused combination: (whether the row refuses it, the exception,
#: what its message names), in the order validation meets them
REFUSED = [
    *((lambda c, row=row: row.applies(_spec_fields(c)), ValueError, repr(row.key))
      for row in REFUSALS),
    (lambda c: c.ranks > 1 and c.warm, NotImplementedError, "warm-start"),
]


def refusal(combo):
    return next(((exc, key) for applies, exc, key in REFUSED if applies(combo)), None)


def build(combo):
    """The campaign of ``combo``, through the spec parse every path shares."""
    spec = CampaignSpec.from_json(combo.spec())
    if combo.ranks == 1:
        return spec.build()
    workload = get_workload(spec.workload) if spec.workload else None
    module = workload.compile() if workload else compile_source(spec.source, name=spec.name)
    if spec.protect == "full":
        duplicate_instructions(module, FullDuplicationSelector().select(module))
    return MpiCampaign(
        workload.make_job(combo.ranks, spec.input, module=module) if workload
        else MpiJob(module, combo.ranks),
        verifier=workload.verifier() if workload else None, entry=spec.entry,
        budget_factor=spec.budget_factor, warm_start=spec.warm_start,
        recovery=RecoveryPolicy(max_rollbacks=spec.max_rollbacks,
                                snapshot_period=spec.snapshot_period)
        if spec.recover else None,
        fault_model=spec.fault_model,
    )


@contextmanager
def per_block_dispatch(cm):
    """Make the lean and the profiled loop dispatch block by block,
    injected and resync-armed trials too."""
    saved = [(cf.region_fns, cf.region_of, cf.profiled_fns) for cf in cm.cfuncs]
    for cf in cm.cfuncs:
        cf.region_fns = list(cf.block_fns)
        cf.region_of = {}
        cf.profiled_fns = list(cf.block_fns)
    try:
        yield
    finally:
        for cf, tables in zip(cm.cfuncs, saved):
            cf.region_fns, cf.region_of, cf.profiled_fns = tables


class Run(NamedTuple):
    entries: list
    checkpoint: Optional[list]  # its trial lines, in trial order
    metrics: MetricsRegistry


def wire(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def checkpoint_lines(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh.read().splitlines()[1:]]
    return sorted(({k: v for k, v in e.items() if k != "crc"} for e in lines),
                  key=lambda e: e["i"])


def run_in_process(combo, tmp_path) -> Run:
    def armed(stack):
        campaign = build(combo)
        if combo.per_block:
            stack.enter_context(per_block_dispatch(campaign.interp.cm))
        if combo.count_route:
            campaign._fire_cycle = lambda site: None
        return campaign

    path = str(tmp_path / "ck.jsonl") if combo.resume_at else None
    seen = []  # the trials run before the interrupt: a warm campaign runs out of order
    with ExitStack() as stack:
        if combo.resume_at:

            def interrupt(index, record):
                seen.append(index)
                if len(seen) == combo.resume_at:
                    raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                armed(stack).run(combo.trials, seed=combo.seed,
                                 checkpoint_path=path, on_trial=interrupt)
        campaign = armed(stack)
        obs = Observation(trace_path=str(tmp_path / "trace.json"),
                          metrics_path=str(tmp_path / "metrics.json")) if combo.obs else None
        jobs = combo.jobs if combo.executor == "pool" else 1
        result = campaign.run(
            combo.trials, seed=combo.seed, n_jobs=jobs,
            checkpoint_path=path, obs=obs,
            chaos=ChaosMonkey(kill_at=[max(set(range(combo.trials)) - set(seen))],
                              state_dir=str(tmp_path / "c"))
            if combo.chaos else None,
        )
    assert obs is None or result.stats.registry is obs.registry
    stats = result.stats
    assert (stats.n_jobs, stats.completed) == (jobs, combo.trials - (combo.resume_at or 0))
    plan = TrialPlan(campaign, combo.trials, combo.seed)
    return Run([plan.entry(i, r) for i, r in enumerate(result.records)],
               checkpoint_lines(path) if path else None, result.stats.registry)


def run_service(combo, tmp_path) -> Run:
    server = ServerThread(str(tmp_path / "journal"), solo_grace=0.05,
                          solo=combo.executor == "solo")
    try:
        with ServiceClient(port=server.start()) as client:
            job = client.submit(combo.spec())["job"]
            if combo.executor == "worker":
                worker = start_worker(server.server.port, idle_exit=0.2)
            assert client.wait(job)["state"] == "done"
            entries = client.results(job)
        if combo.executor == "worker":
            worker["thread"].join(30)  # it idles out while the coordinator lives
            assert worker["code"] == 0
        path = server.server.journal.job_path(job)
    finally:
        server.stop()
    with open(path) as fh:
        stats = json.loads(fh.readline())["stats"]
    return Run(entries, checkpoint_lines(path), MetricsRegistry.from_dict(stats))


_REFERENCES = {}


def reference(combo):
    """The serial-cold ``(entries, result)`` of ``combo``'s records, once a session."""
    key = combo.reference
    if key not in _REFERENCES:
        campaign = build(key)
        result = campaign.run(key.trials, seed=key.seed, n_jobs=1)
        plan = TrialPlan(campaign, key.trials, key.seed)
        _REFERENCES[key] = [plan.entry(i, r) for i, r in enumerate(result.records)], result
    return _REFERENCES[key]


def check(combo, tmp_path) -> Optional[Run]:
    """Run ``combo`` and hold it to the serial-cold reference."""
    refused = refusal(combo)
    if refused is not None:
        with pytest.raises(refused[0], match=refused[1]):
            build(combo)
        return None
    entries, result = reference(combo)
    counts = result.counts.counts
    multi_shot = get_fault_model(combo.model).multi_shot
    if combo.recover and multi_shot:  # the fault replays: checks fire, and fail-stop
        assert counts[Outcome.CORRECTED] == 0 and counts[Outcome.DETECTED] >= 1, counts
    elif combo.recover:
        assert counts[Outcome.CORRECTED] >= 1, counts
        assert all(r.recovery.rollbacks > 0 for r in result.records_with_outcome(
            Outcome.CORRECTED))

    service = combo.executor in ("solo", "worker")
    got = (run_service if service else run_in_process)(combo, tmp_path)
    assert wire(got.entries) == wire(entries), combo
    assert got.checkpoint is None or wire(got.checkpoint) == wire(entries), combo
    if combo.obs:
        snapshot = {k: v for k, v in got.metrics.deterministic_snapshot().items()
                    if not (combo.warm and k.startswith("ipas_warm"))}
        assert wire(snapshot) == wire(result.stats.registry.deterministic_snapshot())

    value = got.metrics.value
    if combo.warm and not service:  # the wire carries no warm triple
        assert value("ipas_warm_restores_total") >= 1, combo
        if combo.recover or combo.count_route or multi_shot:
            assert value("ipas_warm_resyncs_total") == 0, combo
    assert not combo.chaos or value("ipas_worker_deaths_total") >= 1, combo
    assert value("ipas_trials_resumed_total") == (combo.resume_at or 0), combo
    return got


@st.composite
def combos(draw):
    """Combinations of every knob, less those that cannot be expressed and
    those that are refused (:data:`EXAMPLES` holds one of each of those)."""
    executor = draw(st.sampled_from(EXECUTORS))
    service = executor in ("solo", "worker")
    # The service's CampaignSpec has no ranks field.
    ranks = 1 if service else draw(st.sampled_from([1, 2]))
    # More ranks run the kernel with its collective, which keeps a rank
    # thread's job cheap; tests/test_mpi_campaign.py names `is` jobs.
    name = "kernel" if ranks > 1 else draw(st.sampled_from(list(INPUTS)))
    trials, seed = INPUTS[name]
    protect = draw(st.sampled_from(["none", "full"]))
    # Recovery costs about 0.6 s a trial on fully duplicated fft: the
    # workloads run it in an example of a few trials.
    recover = protect == "full" and name == "kernel" and draw(st.booleans())
    warm = ranks == 1 and draw(st.booleans())
    knobs = [k for k in KNOBS if (warm if k[0] == "snapshot_stride" else recover)]
    return Combo(
        name, trials, seed, ranks,
        model=draw(st.sampled_from(list(FAULT_MODELS))),
        protect=protect,
        recover=recover,
        knob=draw(st.none() | st.sampled_from(knobs)) if knobs else None,
        warm=warm,
        executor=executor,
        jobs=draw(st.integers(2, 3)) if executor == "pool" else 2,
        # The service keeps its own metrics and takes no Observation.
        obs=not service and draw(st.booleans()),
        # A service job resumes only across a coordinator restart, which
        # tests/test_service.py::TestKillRestart drills in a subprocess.
        resume_at=None if service else draw(st.none() | st.integers(1, trials // 2)),
        # Chaos kills a fork-pool worker; the other executors have none.
        chaos=executor == "pool" and draw(st.booleans()),
        # A service campaign runs in the coordinator's or a socket
        # worker's own interpreter, out of the test's reach.
        per_block=not service and draw(st.booleans()),
        # A multi-rank trial runs the whole job and never trips.
        count_route=not service and ranks == 1 and draw(st.booleans()),
    )


#: combinations every run examines
EXAMPLES = [
    # fft under recovery, warm on the pool: the costly path, a few trials
    Combo("fft", 3, 7, protect="full", recover=True, warm=True, executor="pool"),
    # 2 ranks under recovery: corrections on a job with a collective
    Combo(ranks=2, protect="full", recover=True, executor="pool"),
    # a single-shot model besides the default, corrected
    Combo(model="transient-multibit", protect="full", recover=True),
    # multi-shot models under recovery fail-stop, warm or on the pool
    Combo(model="intermittent", protect="full", recover=True, warm=True),
    Combo(model="persistent", protect="full", recover=True, executor="pool"),
    # the service, warm and under another fault model, solo and on a worker
    Combo(warm=True, executor="solo"),
    Combo(model="transient-multibit:k=2", executor="worker"),
    # one of each refused combination
    Combo(knob=("snapshot_stride", 150)),
    Combo(knob=("max_rollbacks", 3), protect="full"),
    Combo(knob=("snapshot_period", 40)),
    Combo(recover=True),
    Combo(ranks=2, warm=True),
]


def with_examples(test):
    for combo in EXAMPLES:
        test = example(combo=combo)(test)
    return test


class TestDeterminism:
    @settings(derandomize=True, database=None, deadline=None, max_examples=70)
    @given(combo=combos())
    @with_examples
    def test_matches_serial_cold(self, combo, tmp_path_factory):
        check(combo, tmp_path_factory.mktemp("combo"))

    @settings(derandomize=True, database=None, max_examples=200)
    @given(combo=combos())
    def test_drawn_combinations_are_never_refused(self, combo):
        assert refusal(combo) is None, combo

    def test_every_refusal_has_an_example(self):
        rows = {(exc, key) for _applies, exc, key in REFUSED}
        assert {refusal(combo) for combo in EXAMPLES} >= rows
