"""repro.faults — FlipIt-style statistical fault injection."""

from .model import (
    FaultSite,
    injectable_instructions,
    is_injectable,
    result_bits,
)
from .models import (
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    FaultModel,
    InjectionSpec,
    Intermittent,
    PatternFault,
    Persistent,
    Transient1Bit,
    TransientMultiBit,
    get_fault_model,
    make_corrupter,
    parse_fault_model_spec,
    validate_fault_model_spec,
)
from .outcomes import (
    Outcome,
    OutcomeCounts,
    margin_of_error,
    parse_outcome,
    soc_reduction_percent,
)
from .campaign import Campaign, CampaignResult, OutputVerifier, TrialRecord
from .spec import CampaignSpec
from .mpi_campaign import MpiCampaign
from .sanitizer import (
    CoverageViolation,
    module_is_protected,
    sanitize_records,
    sanitizer_enabled,
)
from .parallel import (
    CampaignCheckpoint,
    CampaignStats,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointWarning,
    TrialPlan,
    campaign_fingerprint,
    fork_available,
    record_from_entry,
    resolve_jobs,
    run_campaign,
    trial_entry,
    verify_checkpoint,
)
from .supervisor import (
    PoolCollapse,
    SupervisorPolicy,
    TrialFailure,
    WorkerFailureError,
    backoff_delay,
    run_supervised,
    validate_max_retries,
    validate_seconds,
)
from .chaos import (
    ChaosMonkey,
    ServiceChaos,
    parse_chaos_spec,
    parse_service_chaos_spec,
    validate_chaos_spec,
    validate_service_chaos_spec,
)

__all__ = [
    "FaultSite", "injectable_instructions", "is_injectable", "result_bits",
    "DEFAULT_FAULT_MODEL", "FAULT_MODELS", "FaultModel", "InjectionSpec",
    "Intermittent", "PatternFault", "Persistent",
    "Transient1Bit", "TransientMultiBit", "get_fault_model",
    "make_corrupter", "parse_fault_model_spec", "validate_fault_model_spec",
    "Outcome", "OutcomeCounts", "margin_of_error", "parse_outcome",
    "soc_reduction_percent",
    "Campaign", "CampaignResult", "CampaignSpec", "OutputVerifier", "TrialRecord",
    "MpiCampaign",
    "CoverageViolation", "module_is_protected", "sanitize_records",
    "sanitizer_enabled",
    "CampaignCheckpoint", "CampaignStats", "TrialPlan", "campaign_fingerprint",
    "CheckpointError", "CheckpointMismatchError", "CheckpointWarning",
    "record_from_entry", "trial_entry",
    "fork_available", "resolve_jobs", "run_campaign", "verify_checkpoint",
    "PoolCollapse", "SupervisorPolicy", "TrialFailure",
    "WorkerFailureError", "backoff_delay", "run_supervised",
    "validate_max_retries", "validate_seconds",
    "ChaosMonkey", "ServiceChaos", "parse_chaos_spec",
    "parse_service_chaos_spec", "validate_chaos_spec",
    "validate_service_chaos_spec",
]
