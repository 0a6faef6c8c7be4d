"""Throughput regression guard for CI.

Loads the committed ``BENCH_campaign.json`` baseline, re-measures serial
campaign throughput on the same workloads with a reduced trial count, and
fails (exit 1) if the measured rate drops below a fraction of the
baseline.  CI machines are slower and noisier than the box that produced
the baseline, so the default tolerance band is generous — the guard
exists to catch order-of-magnitude engine regressions (an accidentally
quadratic loop, a lost fast path), not single-digit drift.  Finer
comparisons, warm and cold alike, are the job of ``benchmarks/perf``.

Knobs (environment):

* ``IPAS_BENCH_MIN_RATIO``       — minimum measured/baseline ratio per
  workload (default 0.25).
* ``IPAS_BENCH_TRIALS``          — trials per measurement (default 100).

Run standalone::

    PYTHONPATH=src python benchmarks/check_throughput_regression.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from bench_campaign_throughput import measure

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_campaign.json"

MIN_RATIO = float(os.environ.get("IPAS_BENCH_MIN_RATIO", "0.25"))
TRIALS = int(os.environ.get("IPAS_BENCH_TRIALS", "100"))


def check_serial_baseline() -> list:
    """Order-of-magnitude guard: measured rate vs committed baseline."""
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; nothing to guard", file=sys.stderr)
        return []
    baseline = json.loads(BASELINE.read_text())
    failures = []
    for name, entry in baseline["workloads"].items():
        base_rate = entry["serial_trials_per_second"]
        if base_rate <= 0:
            continue
        current = measure(name, n_jobs=1, trials=TRIALS)
        rate = current["stats"]["trials_per_second"]
        ratio = rate / base_rate
        status = "ok" if ratio >= MIN_RATIO else "REGRESSED"
        print(
            f"{name:>8}: {rate:8.1f} trials/s vs baseline {base_rate:8.1f} "
            f"(ratio {ratio:.2f}, floor {MIN_RATIO:.2f}) {status}"
        )
        if ratio < MIN_RATIO:
            failures.append(name)
    return failures


def main() -> int:
    failures = check_serial_baseline()
    if failures:
        print(
            f"throughput regression on: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
