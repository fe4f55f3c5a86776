"""Resilient experiment runner: retries, validation, fault injection.

``repro.runner`` wraps the per-benchmark experiment units behind a
batch-service reliability layer — see :mod:`repro.runner.runner` for the
orchestrator (inline, or isolated and checkpointed through
:mod:`repro.fabric`), and ``docs/robustness.md`` for the architecture.
"""

from .errors import (
    CheckpointError,
    FatalError,
    RunnerError,
    TransientError,
    ValidationError,
    classify,
    stage_of,
)
from .faults import (
    DATA_FAULT_KINDS,
    FABRIC_FAULT_KINDS,
    FABRIC_KILL_EXIT,
    FABRIC_POISON_EXIT,
    HARD_CRASH_EXIT,
    KINDS,
    STAGES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from .retry import RetryPolicy, call_with_retry, retry_rng
from .store import (
    ArtifactCorruptError,
    ArtifactStore,
    RepairReport,
)
from .runner import (
    BenchmarkFailure,
    RunnerConfig,
    SuiteRunResult,
    UnitTask,
    execute_unit,
    experiment_from_dict,
    experiment_to_dict,
    figure4_row_from_dict,
    figure4_row_to_dict,
    payload_to_result,
    render_failure_table,
    render_partial_banner,
    run_figure4_resilient,
    run_suite_resilient,
    run_units,
)
from .validate import (
    InvariantResult,
    render_invariant_report,
    validate_layout,
    validate_linked,
    validate_profile,
)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactStore",
    "BenchmarkFailure",
    "CheckpointError",
    "DATA_FAULT_KINDS",
    "FABRIC_FAULT_KINDS",
    "FABRIC_KILL_EXIT",
    "FABRIC_POISON_EXIT",
    "FatalError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HARD_CRASH_EXIT",
    "InvariantResult",
    "KINDS",
    "RepairReport",
    "RetryPolicy",
    "RunnerConfig",
    "RunnerError",
    "STAGES",
    "SuiteRunResult",
    "TransientError",
    "UnitTask",
    "ValidationError",
    "call_with_retry",
    "classify",
    "execute_unit",
    "experiment_from_dict",
    "experiment_to_dict",
    "figure4_row_from_dict",
    "figure4_row_to_dict",
    "parse_fault_spec",
    "payload_to_result",
    "render_failure_table",
    "render_invariant_report",
    "render_partial_banner",
    "retry_rng",
    "run_figure4_resilient",
    "run_suite_resilient",
    "run_units",
    "stage_of",
    "validate_layout",
    "validate_linked",
    "validate_profile",
]
