"""Smoke self-test of the campaign-engine benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.  Every
workload runs at ``--smoke`` scale (20 trials, one repeat) through the
real command line, untraced and traced, and the output contract is
checked; no timing is asserted.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

from common import BENCHMARK_FILE, HERE, ROOT, WORKLOADS, load_benchmark

RUN = HERE / "run.py"


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


def smoke(tmp_path_factory, *args):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    proc = run_bench("--smoke", "--out", str(out), *args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text()), out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory, "--traced")


def test_every_workload_runs_and_checks_out(untraced, traced):
    for last, doc, _ in (untraced, traced):
        assert last["correct"] is True
        assert last["failed"] == 0 and last["attempted"] > 0
        assert list(doc["raw"]) == list(WORKLOADS)
        assert set(doc["failed_trial_frac"].values()) == {0.0}
        assert doc["host"]["cpu_count"] >= 1


def test_every_name_is_in_the_catalog_with_its_unit(untraced, traced):
    catalog = load_benchmark()
    end_to_end = {m["name"]: m["unit"] for m in catalog["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in catalog["per_layer"]}
    for (last, doc, _), key, names in (
        (untraced, "metrics", end_to_end), (traced, "layers", per_layer),
    ):
        for workload in WORKLOADS:
            emitted = doc[key][workload]
            assert set(emitted) == set(names)
            for name, entry in emitted.items():
                assert entry["unit"] == names[name]
        for key_name, entry in last["metrics"].items():
            workload, name = key_name.split("/", 1)
            assert workload in WORKLOADS and entry["unit"] == names[name]


def test_every_wrapper_is_restored(traced):
    assert traced[1]["wrappers_restored"] == {w: True for w in WORKLOADS}


def test_trace_file_loads_and_every_parent_exists(traced):
    with gzip.open(traced[2].with_suffix(".trace.json.gz"), "rt") as fh:
        trace = json.load(fh)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    ids = {(e["pid"], e["tid"], e["args"]["id"]) for e in spans}
    assert spans
    for e in spans:
        parent = e["args"].get("parent")
        assert parent is None or (e["pid"], e["tid"], parent) in ids
    trials = {e["args"]["trial"] for e in spans if e["name"] == "Campaign.run_site"}
    assert trials == set(range(20))


def test_compare_reads_its_own_results(untraced):
    path = str(untraced[2])
    proc = run_bench("--compare", path, path)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(load_benchmark()["end_to_end"])
    assert all(row.endswith(" ok") for row in rows)


def test_fails_cleanly_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK_FILE, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fft-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
