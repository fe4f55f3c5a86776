"""Control-flow-graph substrate: blocks, procedures, programs, builders."""

from .analysis import (
    NaturalLoop,
    dominates,
    exit_blocks,
    immediate_dominators,
    immediate_postdominators,
    loop_depths,
    natural_loops,
    postdominates,
    reverse_postorder,
)
from .blocks import (
    BasicBlock,
    BlockId,
    CallSite,
    Edge,
    EdgeKind,
    TerminatorKind,
)
from .builder import ProcedureBuilder, ProgramBuilder
from .dot import procedure_to_dot
from .procedure import CFGError, Finding, Procedure, cite_finding, procedure_findings
from .program import Program

__all__ = [
    "BasicBlock",
    "BlockId",
    "CFGError",
    "CallSite",
    "Edge",
    "NaturalLoop",
    "EdgeKind",
    "Finding",
    "Procedure",
    "ProcedureBuilder",
    "Program",
    "ProgramBuilder",
    "TerminatorKind",
    "cite_finding",
    "dominates",
    "exit_blocks",
    "immediate_dominators",
    "immediate_postdominators",
    "loop_depths",
    "natural_loops",
    "postdominates",
    "procedure_findings",
    "procedure_to_dot",
    "reverse_postorder",
]
