"""Shared fixtures for the benchmark / experiment-regeneration suite.

Each benchmark regenerates one paper table or figure.  Results print to
stdout (run with ``-s`` to watch live) and, at the ``default`` scale, are
also written to ``benchmarks/results/<name>.txt`` so ``bench_output.txt``
plus that directory together capture the whole reproduction; a run at any
other scale leaves the committed tables as they are.

Campaign sizes come from :class:`repro.core.ExperimentScale` — set
``IPAS_SCALE=paper`` for the paper's full 2500/500/1024 campaign sizes,
``IPAS_SCALE=quick`` for a smoke pass (the default preset is laptop-scale).
Computed results are cached under ``.ipas_cache/``, so regenerating another
figure over the same campaigns is fast.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return ExperimentScale.from_env()


@pytest.fixture(scope="session")
def report(scale):
    """Print a report block and, at the ``default`` scale (the scale of
    the committed tables), persist it under benchmarks/results/."""
    persist = scale.name == "default"

    def emit(name: str, text: str) -> None:
        if persist:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        sys.stdout.write(text + "\n")  # visible with -s; captured otherwise

    return emit


def one_shot(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
