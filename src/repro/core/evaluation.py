"""Evaluation of protected programs (paper §6.2–§6.3).

For each technique variant this module measures:

* **coverage** — the outcome proportions of a statistical fault-injection
  campaign (the Fig. 5 bars);
* **slowdown** — fault-free protected cycles over fault-free unprotected
  cycles (the Fig. 6 x-axis; deterministic on the cycle cost model);
* **SOC reduction** — the drop in SOC fraction relative to the unprotected
  campaign (the Fig. 6 y-axis);

and selects best configurations by the paper's *ideal point* criterion
(§6.3): the configuration closest, in the plotted units, to
(slowdown = 1, SOC reduction = 100%).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..faults.outcomes import OutcomeCounts, soc_reduction_percent
from ..faults.spec import CampaignSpec
from ..ir.module import Module
from ..recover.runtime import RecoveryPolicy, summarize_telemetry
from ..workloads.base import Workload


class TechniqueEvaluation:
    """Coverage + performance of one protected (or unprotected) variant.

    ``recovery`` is a campaign-level telemetry summary (see
    :func:`repro.recover.summarize_telemetry`) when the evaluation ran
    under the rollback runtime, else ``None``.
    """

    def __init__(
        self,
        technique: str,
        config_label: str,
        counts: OutcomeCounts,
        golden_cycles: int,
        slowdown: float,
        duplicated_fraction: float,
        soc_reduction: float,
        recovery: Optional[Dict] = None,
    ):
        self.technique = technique
        self.config_label = config_label
        self.counts = counts
        self.golden_cycles = golden_cycles
        self.slowdown = slowdown
        self.duplicated_fraction = duplicated_fraction
        self.soc_reduction = soc_reduction
        self.recovery = recovery

    @property
    def soc_fraction(self) -> float:
        return self.counts.soc_fraction

    @property
    def corrected_fraction(self) -> float:
        return self.counts.corrected_fraction

    def distance_to_ideal(self) -> float:
        """Euclidean distance to (slowdown=1, reduction=100) in plot units."""
        return math.hypot(self.slowdown - 1.0, self.soc_reduction - 100.0)

    def __repr__(self) -> str:
        return (
            f"<TechniqueEvaluation {self.technique}/{self.config_label} "
            f"soc={self.soc_fraction:.3f} slowdown={self.slowdown:.3f}>"
        )


def evaluate_variant(
    module: Module,
    workload: Workload,
    unprotected_soc_fraction: float,
    unprotected_cycles: int,
    technique: str,
    config_label: str,
    trials: int,
    seed: int,
    duplicated_fraction: float = 0.0,
    input_id: int = 1,
    n_jobs: Optional[int] = None,
    supervision=None,
    recovery: Optional[RecoveryPolicy] = None,
    obs=None,
) -> TechniqueEvaluation:
    """Run the evaluation campaign for one module variant.

    ``supervision`` (a ``repro.faults.SupervisorPolicy``) controls worker
    recovery for the underlying campaign; ``None`` uses the env defaults.
    ``recovery`` (a ``repro.recover.RecoveryPolicy``) arms rollback
    re-execution, letting fired checks resolve as CORRECTED instead of
    fail-stop DETECTED.  ``obs`` (a ``repro.obs.Observation``) attaches
    tracing and a shared metrics registry to the campaign.
    """
    campaign = CampaignSpec(
        workload=workload, input=input_id, trials=trials, seed=seed
    ).build(module, recovery=recovery)
    result = campaign.run(
        trials, seed=seed, n_jobs=n_jobs, supervision=supervision, obs=obs
    )
    slowdown = (
        campaign.golden_cycles / unprotected_cycles if unprotected_cycles else 1.0
    )
    reduction = soc_reduction_percent(
        unprotected_soc_fraction, result.counts.soc_fraction
    )
    recovery_summary = (
        summarize_telemetry(r.recovery for r in result.records)
        if recovery is not None
        else None
    )
    return TechniqueEvaluation(
        technique,
        config_label,
        result.counts,
        campaign.golden_cycles,
        slowdown,
        duplicated_fraction,
        reduction,
        recovery=recovery_summary,
    )


def evaluate_unprotected(
    workload: Workload,
    trials: int,
    seed: int,
    input_id: int = 1,
    n_jobs: Optional[int] = None,
    supervision=None,
    obs=None,
) -> TechniqueEvaluation:
    """The reference campaign on the clean module."""
    campaign = CampaignSpec(
        workload=workload, input=input_id, trials=trials, seed=seed
    ).build()
    result = campaign.run(
        trials, seed=seed, n_jobs=n_jobs, supervision=supervision, obs=obs
    )
    return TechniqueEvaluation(
        "unprotected",
        "-",
        result.counts,
        campaign.golden_cycles,
        1.0,
        0.0,
        0.0,
    )


def ideal_point_best(
    evaluations: List[TechniqueEvaluation],
) -> Optional[TechniqueEvaluation]:
    """Paper §6.3: the configuration nearest (1, 100) in plot units."""
    if not evaluations:
        return None
    return min(evaluations, key=lambda e: e.distance_to_ideal())
