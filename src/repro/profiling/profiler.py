"""ATOM-style profiling: run the original binary once, collect edge counts."""

from __future__ import annotations

from typing import Tuple

from ..cfg import Program
from ..isa.encoder import link_identity
from ..sim.executor import ExecutionResult, execute
from .edge_profile import EdgeProfile


def profile_program(program: Program, seed: int = 0) -> EdgeProfile:
    """Execute ``program`` in its original layout and collect edge counts.

    This is the paper's first simulator pass: "Each simulator was run once
    to collect information about branches ... and a second time to use
    profile information from the prior run."
    """
    profile, _result = profile_program_with_result(program, seed=seed)
    return profile


def profile_program_with_result(
    program: Program, seed: int = 0
) -> Tuple[EdgeProfile, ExecutionResult]:
    """Like :func:`profile_program` but also return the execution summary."""
    profile = EdgeProfile()
    linked = link_identity(program)
    result = execute(linked, profile_hook=profile.hook, seed=seed)
    return profile, result
