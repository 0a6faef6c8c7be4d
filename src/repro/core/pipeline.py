"""The IPAS pipeline — the four steps of paper Fig. 1.

1. *Verification routine*: supplied by the workload (Table 2).
2. *Data collection*: a statistical fault-injection campaign on the
   training input labels each injected instruction's feature vector as
   SOC-generating or not (or symptom-generating, for the Shoestring-style
   baseline of §5.3).
3. *Training*: stratified-CV grid search over (C, γ) ranked by the Eq.-1
   F-score; the top-N configurations are kept (§6.1).
4. *Application protection*: each configuration's classifier nominates the
   instructions to protect, and the duplication pass rewrites a fresh
   module.

Wall-clock timings of steps 3 and 4 are recorded per configuration
(paper Table 6).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults.campaign import CampaignResult
from ..faults.outcomes import Outcome
from ..faults.spec import CampaignSpec
from ..features.extract import FeatureExtractor
from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..ml.crossval import GridSearch, SvmConfig, paper_grid
from ..ml.scaling import StandardScaler
from ..ml.svm import SVC
from ..protect.duplication import DuplicationReport, duplicate_instructions
from ..protect.selectors import IpasSelector, LearnedSelector, ShoestringStyleSelector
from ..workloads.base import Workload
from .scale import ExperimentScale

#: labeling policies for step 2
LABEL_SOC = "soc"          # class 1 = SOC-generating (IPAS)
LABEL_SYMPTOM = "symptom"  # class 1 = symptom-generating (baseline)


class CollectedData:
    """One campaign's raw material, shareable between labelings.

    The IPAS and Shoestring-style pipelines differ only in how trials are
    *labeled* (SOC vs symptom), so a single campaign on the training input
    feeds both — exactly as one FlipIt campaign log could be re-labeled.
    """

    def __init__(self, module: Module, campaign: CampaignResult, X: np.ndarray):
        self.module = module
        self.campaign = campaign
        self.X = X


def collect_data(
    workload: Workload,
    n_samples: int,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    supervision=None,
    recovery=None,
) -> CollectedData:
    """Step 2 of Fig. 1: statistical fault injection plus feature vectors.

    ``supervision`` (a ``repro.faults.SupervisorPolicy``) controls worker
    recovery for the collection campaign; ``None`` uses the env defaults.
    ``recovery`` (a ``repro.recover.RecoveryPolicy``) arms rollback
    re-execution; leave it ``None`` for paper-faithful training labels —
    the clean training module carries no checks, so enabling it only
    matters when collecting from an already protected module.
    """
    campaign = CampaignSpec(workload=workload, trials=n_samples, seed=seed).build(
        recovery=recovery
    )
    module = campaign.interp.module
    result = campaign.run(n_samples, seed=seed, n_jobs=n_jobs, supervision=supervision)
    extractor = FeatureExtractor(module)
    X = extractor.extract_many([r.instruction for r in result.records])
    return CollectedData(module, result, X)


class TrainingData:
    """Labeled feature vectors from the fault-injection campaign."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        campaign: CampaignResult,
        labeling: str,
    ):
        self.X = X
        self.y = y
        self.campaign = campaign
        self.labeling = labeling

    @property
    def positive_fraction(self) -> float:
        return float(np.mean(self.y)) if len(self.y) else 0.0

    def __len__(self) -> int:
        return len(self.y)


class TrainedConfig:
    """One (C, γ) configuration fitted on the full training set."""

    def __init__(self, config: SvmConfig, model: SVC, scaler: StandardScaler):
        self.config = config
        self.model = model
        self.scaler = scaler

    def selector(self, protect_positive: bool) -> LearnedSelector:
        if protect_positive:
            return IpasSelector(self.model, self.scaler)
        return ShoestringStyleSelector(self.model, self.scaler)

    def __repr__(self) -> str:
        return f"<TrainedConfig {self.config!r}>"


class ProtectedVariant:
    """A protected module plus how it was produced."""

    def __init__(
        self,
        module: Module,
        report: DuplicationReport,
        technique: str,
        config: Optional[SvmConfig],
        duplication_seconds: float,
    ):
        self.module = module
        self.report = report
        self.technique = technique
        self.config = config
        self.duplication_seconds = duplication_seconds


class IpasPipeline:
    """End-to-end IPAS (or baseline) for one workload."""

    def __init__(
        self,
        workload: Workload,
        scale: Optional[ExperimentScale] = None,
        labeling: str = LABEL_SOC,
        seed: int = 0,
        collected: Optional[CollectedData] = None,
        n_jobs: Optional[int] = None,
        supervision=None,
    ):
        if labeling not in (LABEL_SOC, LABEL_SYMPTOM):
            raise ValueError(f"unknown labeling {labeling!r}")
        self.workload = workload
        self.scale = scale or ExperimentScale.from_env()
        self.labeling = labeling
        self.seed = seed
        self.n_jobs = n_jobs
        self.supervision = supervision
        self.training_seconds = 0.0
        self._collected = collected
        self._training_data: Optional[TrainingData] = None
        self._configs: Optional[List[TrainedConfig]] = None

    # -- step 2: data collection ------------------------------------------------

    def collect_training_data(self) -> TrainingData:
        """Fault-injection campaign on the training input, feature-labeled."""
        if self._training_data is not None:
            return self._training_data
        if self._collected is None:
            self._collected = collect_data(
                self.workload, self.scale.train_samples, self.seed,
                n_jobs=self.n_jobs, supervision=self.supervision,
            )
        collected = self._collected
        y = np.array(
            [
                1 if self._is_positive(r.outcome) else 0
                for r in collected.campaign.records
            ],
            dtype=np.int64,
        )
        self._training_data = TrainingData(
            collected.X, y, collected.campaign, self.labeling
        )
        return self._training_data

    def _is_positive(self, outcome: Outcome) -> bool:
        if self.labeling == LABEL_SOC:
            return outcome is Outcome.SOC
        return outcome.is_symptom

    # -- step 3: training -----------------------------------------------------------

    def train(self) -> List[TrainedConfig]:
        """Grid-search (C, γ), keep the top-N, fit each on all data."""
        if self._configs is not None:
            return self._configs
        data = self.collect_training_data()
        start = time.perf_counter()
        scaler = StandardScaler().fit(data.X)
        X = scaler.transform(data.X)
        search = GridSearch(
            grid=paper_grid(self.scale.grid_configs), k=5, seed=self.seed
        )
        top = search.top_configs(X, data.y, n=self.scale.top_n)
        configs: List[TrainedConfig] = []
        for cfg in top:
            model = cfg.make()
            model.fit(X, data.y)
            configs.append(TrainedConfig(cfg, model, scaler))
        self.training_seconds = time.perf_counter() - start
        self._configs = configs
        return configs

    # -- step 4: protection -----------------------------------------------------------

    def protect(self, trained: TrainedConfig) -> ProtectedVariant:
        """Produce a protected module using one trained configuration."""
        module = self.workload.compile()
        start = time.perf_counter()
        selector = trained.selector(protect_positive=self.labeling == LABEL_SOC)
        selected = selector.select(module)
        report = duplicate_instructions(module, selected)
        elapsed = time.perf_counter() - start
        technique = "ipas" if self.labeling == LABEL_SOC else "baseline"
        return ProtectedVariant(module, report, technique, trained.config, elapsed)

    def protect_all(self) -> List[ProtectedVariant]:
        """Protected variants for every top-N configuration."""
        return [self.protect(tc) for tc in self.train()]
