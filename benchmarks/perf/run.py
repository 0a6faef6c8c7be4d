"""Campaign-engine benchmark: host-adjusted trials/s, time to result,
set-up time and memory on four fault-injection workloads, with a traced
per-layer run.

Run from the repository root (no install needed; the package is taken
from ``src``)::

    python3 benchmarks/perf/run.py                        # all workloads
    python3 benchmarks/perf/run.py --workload fft-cold --seed 3 --seconds 25
    python3 benchmarks/perf/run.py --traced --out traced.json
    python3 benchmarks/perf/run.py --compare A.json B.json

Each workload runs in its own child process (``worker.py``), one at a
time.  Every metric is printed with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when an output check fails, and the
child's code when a child fails.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    HERE,
    ROOT,
    WORKLOADS,
    load_benchmark,
    metric_units,
    quartiles,
    spread,
)

#: a run must end within 180 s; a child gets a little less
CHILD_TIMEOUT = 170
OUT_DIR = HERE / "out"


class ChildFailed(RuntimeError):
    def __init__(self, workload: str, code: int):
        super().__init__(f"{workload}: benchmark child exited with code {code}")
        self.code = code


def run_child(name: str, args, seconds: float, workdir: str) -> dict:
    """Run one workload in a fresh interpreter; returns its result JSON."""
    result_path = os.path.join(workdir, f"{name}.json")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result_path,
    ]
    if args.smoke:
        cmd.append("--smoke")
    # The benchmark pins its own engine settings: drop IPAS_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPAS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except BaseException:
        # timeout or interrupt: stop the child and any pool workers it forked
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise ChildFailed(name, code)
    with open(result_path) as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - start
    return result


def collect(args, names, seconds: float) -> dict:
    """Run every named workload and assemble the results document."""
    benchmark = load_benchmark()
    units = metric_units(benchmark)
    doc = {
        "kind": "campaign-engine-bench",
        "traced": bool(args.trace),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "workloads": {}},
        "metrics": {},
        "layers": {},
        "outcomes": {},
        "failed_trial_frac": {},
        "correct": True,
        "attempted": 0,
        "failed": 0,
        "raw": {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        for name in names:
            child = run_child(name, args, seconds, workdir)
            doc["config"]["workloads"][name] = dict(
                WORKLOADS[name]._asdict(),
                trials=child["trials"], repeats=child["repeats"],
                reference=child["reference"], wall_s=child["wall_s"],
            )
            if args.trace:
                doc["layers"][name] = {
                    k: {"value": v, "unit": units[k]} for k, v in child["layers"].items()
                }
                doc.setdefault("trace_events", []).extend(
                    dict(event, pid=len(doc["raw"])) for event in child["trace_events"]
                )
                doc.setdefault("wrappers_restored", {})[name] = child["wrappers_restored"]
            else:
                doc["metrics"][name] = {
                    k: dict(v, unit=units[k]) for k, v in child["metrics"].items()
                }
            doc["outcomes"][name] = child["outcomes"]
            doc["failed_trial_frac"][name] = child["failed"] / child["attempted"]
            doc["correct"] = doc["correct"] and child["correct"]
            doc["attempted"] += child["attempted"]
            doc["failed"] += child["failed"]
            doc["raw"][name] = child["runs"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return doc


def write_trace(doc: dict, path: Path) -> None:
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        for pid, name in enumerate(doc["raw"])
    ]
    events += doc.pop("trace_events")
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                  separators=(",", ":"))


def report(doc: dict) -> str:
    lines = []
    for name in doc["raw"]:
        spec = doc["config"]["workloads"][name]
        lines.append(
            f"{name}: {spec['repeats']} repeat(s) x {spec['trials']} trials, "
            f"failed_trial_frac {doc['failed_trial_frac'][name]:g}"
        )
        table = doc["layers"][name] if doc["traced"] else doc["metrics"][name]
        for metric, entry in table.items():
            lines.append(f"  {metric:<32} {entry['value']:>14.4f} {entry['unit']}")
    return "\n".join(lines)


def summary_line(doc: dict) -> str:
    """The last line of standard output."""
    table = doc["layers"] if doc["traced"] else doc["metrics"]
    single = len(table) == 1
    metrics = {}
    for name, entries in table.items():
        for metric, entry in entries.items():
            key = metric if single else f"{name}/{metric}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": metrics,
    })


# -- compare mode ------------------------------------------------------------------


def load_side(path: str) -> list:
    """A results file, or every results file in a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = [json.loads(f.read_text()) for f in files]
    docs = [d for d in docs if d.get("kind") == "campaign-engine-bench" and not d["traced"]]
    if not docs:
        raise SystemExit(f"{path}: no untraced results")
    return docs


def samples_of(docs: list, workload: str, metric: str) -> list:
    """One value per run; a single run offers its per-repeat values."""
    entries = [d["metrics"][workload][metric] for d in docs if workload in d["metrics"]]
    if len(entries) == 1:
        return entries[0].get("samples") or [entries[0]["value"]]
    return [e["value"] for e in entries]


def compare(path_a: str, path_b: str) -> int:
    """One row per workload and end-to-end metric; exit 1 on a regression."""
    side_a, side_b = load_side(path_a), load_side(path_b)
    catalog = load_benchmark()["end_to_end"]
    present = [{w for d in side for w in d["metrics"]} for side in (side_a, side_b)]
    workloads = [w for w in WORKLOADS if w in present[0] and w in present[1]]
    print(f"{'workload':<16} {'metric':<18} {'A median':>11} {'A q1..q3':>21} "
          f"{'B median':>11} {'B q1..q3':>21} {'delta':>8} {'bound':>6}  verdict")
    regressed = False
    for workload in workloads:
        for m in catalog:
            a = samples_of(side_a, workload, m["name"])
            b = samples_of(side_b, workload, m["name"])
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1]
            sign = 1.0 if m["better"] == "lower" else -1.0
            if sign * delta > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            # guide rule: a spread wider than the bound leaves the metric
            # unresolved, unless every B run reads better than every A run
            all_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
            if max(spread(a), spread(b)) > m["bound"] and not all_better:
                verdict = "unresolved"
            regressed = regressed or verdict == "regressed"
            print(
                f"{workload:<16} {m['name']:<18} {qa[1]:>11.4f} "
                f"{f'{qa[0]:.4f}..{qa[2]:.4f}':>21} {qb[1]:>11.4f} "
                f"{f'{qb[0]:.4f}..{qb[2]:.4f}':>21} {delta:>+8.2%} "
                f"{m['bound']:>6.0%}  {verdict}"
            )
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="repeat r runs campaign seed SEED+r (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="run length per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny repeat per workload, for tests")
    parser.add_argument("--out", help="write the results document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results files (or directories of them)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    names = list(dict.fromkeys(args.workload or WORKLOADS))
    seconds = args.seconds or load_benchmark()["run_seconds"]
    try:
        doc = collect(args, names, seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except subprocess.TimeoutExpired as exc:
        print(f"error: benchmark child timed out after {exc.timeout} s", file=sys.stderr)
        return 3
    if doc["traced"]:
        trace = (
            Path(args.out).with_suffix(".trace.json.gz") if args.out
            else OUT_DIR / "trace.json.gz"
        )
        write_trace(doc, trace)
        print(f"wrote Chrome trace {trace}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(report(doc))
    print(summary_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
