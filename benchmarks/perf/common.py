"""Shared definitions of the campaign-engine benchmark.

Imported by both the command (``run.py``) and the per-workload child
(``worker.py``); it imports nothing from ``repro``, so ``run.py`` can run
(and fail cleanly) without the package on its path.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"

#: the run length the trial counts below are sized for (BENCHMARK.json)
NOMINAL_SECONDS = 25
#: untraced repeats per workload run; repeat r uses campaign seed S + r
REPEATS = 6
#: traced repeats; each pairs an untraced pass with a traced one
TRACED_REPEATS = 2
#: trials per repeat re-executed on a fresh cold serial campaign
SPOT_CHECKS = 4
#: ``--smoke`` scale: enough to drive every code path, too little to time
SMOKE_TRIALS = 20


class Spec(NamedTuple):
    """One benchmark workload: a campaign configuration on one input."""

    workload: str
    input_id: int
    warm: bool
    protect: bool
    jobs: int
    checkpoint: bool
    #: trials per untraced repeat of a NOMINAL_SECONDS run: about 22 s of
    #: wall time on the reference host, 30 s for the pool, whose two vCPUs
    #: make it the noisiest.  Frozen, because trial counts key the pinned
    #: digests.
    trials: int


WORKLOADS: Dict[str, Spec] = {
    "fft-cold": Spec(
        "fft", 1, warm=False, protect=False, jobs=1, checkpoint=False,
        trials=225,
    ),
    "hpccg-cold": Spec(
        "hpccg", 1, warm=False, protect=False, jobs=1, checkpoint=False,
        trials=130,
    ),
    "fft-warm": Spec(
        "fft", 1, warm=True, protect=False, jobs=1, checkpoint=False,
        trials=580,
    ),
    "hpccg-pool-ckpt": Spec(
        "hpccg", 1, warm=False, protect=True, jobs=2, checkpoint=True,
        trials=480,
    ),
}


def trials_per_repeat(spec: Spec, seconds: float, repeats: int, passes: float = 1.0) -> int:
    """Trials in one campaign so that a run lasts about ``seconds``;
    ``passes`` is the run time of a repeat in units of one campaign."""
    scale = seconds / NOMINAL_SECONDS * REPEATS / (repeats * passes)
    return max(1, round(spec.trials * scale))


# -- host calibration -----------------------------------------------------------
#
# FROZEN: every host-adjusted number in the results files and the pinned
# ``host_mops_ref`` are expressed in units of this loop.  Changing it
# re-bases every recorded result.

CALIBRATION_ITERATIONS = 400_000
#: the slice run after every set-up step and every trial (about 0.2 ms)
CALIBRATION_SLICE = 1_000


class _Box:
    __slots__ = ("value",)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


def calibrate(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Host speed in million loop iterations per second (``host_mops``).

    A fixed pure-Python loop with the interpreter's instruction mix: list
    loads and stores, integer and float arithmetic, a call, and a slot
    attribute update.  The full loop takes about 0.1 s on a 2-core x86
    host.
    """
    cells = [0] * 1024
    box = _Box()
    box.value = 0
    x = 0.5
    start = time.perf_counter()
    for i in range(iterations):
        j = i & 1023
        v = _mix(cells[j], i)
        cells[j] = v
        box.value += v & 7
        x = x * 0.9999 + 1e-4
    return iterations / (time.perf_counter() - start) / 1e6


# -- files ------------------------------------------------------------------------


def load_benchmark() -> Dict:
    return json.loads(BENCHMARK_FILE.read_text())


def load_reference() -> Dict:
    return json.loads(REFERENCE_FILE.read_text())


def metric_units(benchmark: Dict) -> Dict[str, str]:
    """Metric name -> unit over both catalogs of ``BENCHMARK.json``."""
    return {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }


# -- statistics ---------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
