"""Execution, tracing, branch-architecture simulation and metrics."""

from . import behaviors, trace
from .alpha import AlphaConfig, AlphaSim, alpha_execution_cycles
from .decisions import (
    DecisionTrace,
    TraceDecodeError,
    capture_decisions,
    decode_trace,
    encode_trace,
    load_or_capture,
    trace_fingerprint,
    trace_key,
)
from .executor import ExecutionError, ExecutionResult, execute
from .icache import ICacheConfig, InstructionCache
from .metrics import (
    ALL_ARCHS,
    ArchResult,
    DYNAMIC_ARCHS,
    STATIC_ARCHS,
    SimulationReport,
    default_architectures,
    relative_cpi,
    simulate,
)
from .replay import ReplayMismatchError, replay
from .trace import BranchEvent, EventRecorder, TraceStats
from .wideissue import WideIssueConfig, WideIssueFrontEnd, wide_issue_cycles

__all__ = [
    "ALL_ARCHS",
    "AlphaConfig",
    "AlphaSim",
    "ArchResult",
    "BranchEvent",
    "DYNAMIC_ARCHS",
    "DecisionTrace",
    "EventRecorder",
    "ExecutionError",
    "ExecutionResult",
    "ICacheConfig",
    "InstructionCache",
    "ReplayMismatchError",
    "STATIC_ARCHS",
    "SimulationReport",
    "TraceDecodeError",
    "TraceStats",
    "WideIssueConfig",
    "WideIssueFrontEnd",
    "alpha_execution_cycles",
    "behaviors",
    "capture_decisions",
    "decode_trace",
    "default_architectures",
    "encode_trace",
    "execute",
    "load_or_capture",
    "relative_cpi",
    "replay",
    "simulate",
    "trace",
    "trace_fingerprint",
    "trace_key",
    "wide_issue_cycles",
]
