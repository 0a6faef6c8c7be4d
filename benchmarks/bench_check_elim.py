"""Check-redundancy elimination: protected-run overhead reduction.

For every workload, three fully duplicated variants are golden-run and
their dynamic cycle counts compared:

* ``naive``      — one ``ipas.check`` per duplicated instruction
  (``check_placement="every"``, SWIFT's textbook placement);
* ``eliminated`` — the naive variant after
  :mod:`repro.passes.check_elim` removes subsumed checks;
* ``tails``      — the paper's duplication-path tail placement (the
  repo default), as the reference point.

Along the way the preservation contract is asserted: golden outputs of
every variant are bit-identical to the unprotected module's.  The
numbers are written to ``BENCH_checkelim.json`` at the repo root.

The headline finding: tail placement is already near-optimal — strict
subsumption finds (almost) nothing to remove from it, because path
tails feed non-injective sinks (loads, stores, phis, branches,
comparisons).  Elimination's win shows against naive placement, where
it removes 10–30% of checks and a measurable slice of protected-run
cycles.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_check_elim.py

or as part of the benchmark suite (``pytest benchmarks/``).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from repro.faults import OutputVerifier
from repro.interp import run_module
from repro.passes import eliminate_redundant_checks
from repro.protect import DuplicationPass, FullDuplicationSelector
from repro.workloads import all_workloads

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_checkelim.json"


def golden(module):
    result, interp = run_module(module)
    assert result.status == "ok", result.error
    return interp.cycles, OutputVerifier().capture(interp)


def protect(workload, placement):
    module = workload.compile()
    dup = DuplicationPass(module, check_placement=placement)
    dup.run(FullDuplicationSelector().select(module))
    return module


def measure(workload) -> dict:
    _, reference = golden(workload.compile())

    naive = protect(workload, "every")
    naive_cycles, naive_out = golden(naive)

    eliminated = protect(workload, "every")
    elim_report = eliminate_redundant_checks(eliminated)
    elim_cycles, elim_out = golden(eliminated)

    tails = protect(workload, "tails")
    tails_elim = eliminate_redundant_checks(tails).checks_removed
    tails_cycles, tails_out = golden(tails)

    for label, out in (
        ("naive", naive_out),
        ("eliminated", elim_out),
        ("tails", tails_out),
    ):
        assert out == reference, f"{workload.name}/{label}: golden output drift"

    return {
        "naive_cycles": naive_cycles,
        "eliminated_cycles": elim_cycles,
        "tails_cycles": tails_cycles,
        "checks_before": elim_report.checks_before,
        "checks_removed": elim_report.checks_removed,
        "duplicates_removed": elim_report.duplicates_removed,
        "tails_checks_removed": tails_elim,
        "cycle_reduction": (
            (naive_cycles - elim_cycles) / naive_cycles if naive_cycles else 0.0
        ),
    }


def run_bench() -> dict:
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {},
    }
    for workload in all_workloads():
        report["workloads"][workload.name] = measure(workload)
    return report


def format_report(report: dict) -> str:
    lines = [
        "check elimination — protected golden-run cycles, full duplication",
        f"{'workload':>8}  {'naive':>10}  {'eliminated':>10}  {'saved':>6}  "
        f"{'checks':>11}  {'tails':>10}",
    ]
    for name, e in report["workloads"].items():
        lines.append(
            f"{name:>8}  {e['naive_cycles']:>10}  {e['eliminated_cycles']:>10}  "
            f"{e['cycle_reduction']:5.1%}  "
            f"{e['checks_removed']:>4}/{e['checks_before']:<6}  "
            f"{e['tails_cycles']:>10}"
        )
    lines.append(
        "tails column: the repo's default placement (near-optimal — "
        "elimination removes "
        + ", ".join(
            str(e["tails_checks_removed"])
            for e in report["workloads"].values()
        )
        + " checks from it)"
    )
    return "\n".join(lines)


def test_check_elim_overhead(benchmark, report):
    from conftest import one_shot

    result = one_shot(benchmark, run_bench)
    OUTPUT.write_text(json.dumps(result, indent=1) + "\n")
    report("checkelim_overhead", format_report(result))
    for name, entry in result["workloads"].items():
        assert entry["checks_removed"] > 0, f"{name}: nothing eliminated"
        assert entry["eliminated_cycles"] < entry["naive_cycles"], name
        # The default tail placement stays the cheapest protected variant.
        assert entry["tails_cycles"] <= entry["eliminated_cycles"], name


def main() -> int:
    result = run_bench()
    OUTPUT.write_text(json.dumps(result, indent=1) + "\n")
    print(format_report(result))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
