"""Branch execution penalty (BEP) and relative CPI (section 6).

    "We define the branch execution penalty (BEP) to be the execution
    penalty associated with misfetched and mispredicted branches. ...
    In order to evaluate the performance of the different alignments and
    architectures, we add the BEP to the number of instructions executed
    in the aligned program and divide by the number of instructions
    executed in the original program."

This module wires the executor to a set of architecture simulators and
reports per-architecture relative CPI.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..isa.encoder import LinkedProgram
from ..profiling.condmix import CondMixListener
from ..profiling.edge_profile import EdgeProfile
from .decisions import DecisionTrace, capture_decisions
from .executor import ExecutionResult, execute
from .predictors import (
    BTBSim,
    BTFNTSim,
    CorrelationPHT,
    DirectMappedPHT,
    FallthroughSim,
    LikelySim,
)

#: Architecture names in the order Tables 3 and 4 report them.
STATIC_ARCHS = ("fallthrough", "btfnt", "likely")
DYNAMIC_ARCHS = ("pht-direct", "pht-correlation", "btb-64x2", "btb-256x4")
ALL_ARCHS = STATIC_ARCHS + DYNAMIC_ARCHS

#: Each architecture's simulator for one linked binary: BT/FNT and
#: LIKELY read branch directions from the image, LIKELY its likely bits
#: from the profile.
_SIMULATORS: Dict[str, Callable[[LinkedProgram, EdgeProfile], object]] = {
    "fallthrough": lambda linked, profile: FallthroughSim(),
    "btfnt": lambda linked, profile: BTFNTSim(linked),
    "likely": LikelySim,
    "pht-direct": lambda linked, profile: DirectMappedPHT(),
    "pht-correlation": lambda linked, profile: CorrelationPHT(),
    "btb-64x2": lambda linked, profile: BTBSim(64, 2),
    "btb-256x4": lambda linked, profile: BTBSim(256, 4),
}


@dataclass
class ArchResult:
    """Per-architecture outcome of one simulation."""

    name: str
    misfetches: int
    mispredicts: int
    bep: int
    cond_executed: int
    cond_correct: int

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_executed:
            return 1.0
        return self.cond_correct / self.cond_executed


@dataclass
class SimulationReport:
    """All architecture results for one (program, layout) execution."""

    instructions: int
    events: int
    cond_taken: int
    cond_executed: int
    arch: Dict[str, ArchResult] = field(default_factory=dict)

    def relative_cpi(self, arch_name: str, original_instructions: int) -> float:
        """(aligned instructions + BEP) / original instructions."""
        result = self.arch[arch_name]
        if original_instructions <= 0:
            raise ValueError("original instruction count must be positive")
        return (self.instructions + result.bep) / original_instructions

    @property
    def fallthrough_rate(self) -> float:
        """Fraction of executed conditional branches that fell through.

        The tournament's second scoring axis (claim 19 compares ext-TSP
        against Greedy on it): a layout that converts taken conditionals
        to fall-throughs raises this toward 1.0.  Programs that execute
        no conditionals score a vacuous 1.0.
        """
        if not self.cond_executed:
            return 1.0
        return (self.cond_executed - self.cond_taken) / self.cond_executed

    @property
    def percent_fallthrough(self) -> float:
        """Fall-through percentage of executed conditional branches."""
        return 100.0 * self.fallthrough_rate


def make_arch_sims(
    names: Sequence[str], linked: LinkedProgram, profile: EdgeProfile
) -> List[object]:
    """Instantiate the named architecture simulators for one binary."""
    sims: List[object] = []
    for name in names:
        build = _SIMULATORS.get(name)
        if build is None:
            raise ValueError(f"unknown architecture {name!r}")
        sims.append(build(linked, profile))
    return sims


def default_architectures(linked: LinkedProgram, profile: EdgeProfile) -> List[object]:
    """The seven architectures of Tables 3 and 4, freshly initialised."""
    return make_arch_sims(ALL_ARCHS, linked, profile)


def _report_from(
    sims: Sequence[object],
    instructions: int,
    events: int,
    cond_taken: int,
    cond_executed: int,
) -> SimulationReport:
    report = SimulationReport(
        instructions=instructions,
        events=events,
        cond_taken=cond_taken,
        cond_executed=cond_executed,
    )
    for sim in sims:
        counts = sim.counts
        report.arch[sim.name] = ArchResult(
            name=sim.name,
            misfetches=counts.misfetches,
            mispredicts=counts.mispredicts,
            bep=counts.bep,
            cond_executed=counts.cond_executed,
            cond_correct=counts.cond_correct,
        )
    return report


def _simulate_execute(
    linked: LinkedProgram,
    sims: Sequence[object],
    seed: int,
) -> SimulationReport:
    """The execute engine: one full execution feeding every simulator."""
    mix = CondMixListener()
    result: ExecutionResult = execute(linked, listeners=list(sims) + [mix], seed=seed)
    return _report_from(sims, result.instructions, result.events, mix.taken, mix.executed)


def replay_check_enabled() -> bool:
    """True when ``REPRO_REPLAY_CHECK`` requests differential checking."""
    return os.environ.get("REPRO_REPLAY_CHECK", "") not in ("", "0")


def simulate(
    linked: LinkedProgram,
    profile: EdgeProfile,
    archs: Optional[Sequence[object]] = None,
    seed: int = 0,
    *,
    trace: Optional[DecisionTrace] = None,
    engine: Optional[str] = None,
    replay_check: Optional[bool] = None,
) -> SimulationReport:
    """Evaluate a linked binary on every architecture simulator.

    ``profile`` supplies the likely bits for the LIKELY architecture (and
    is the same profile that drove the alignment, per the paper).

    Engine selection: an explicit ``engine`` ("execute" or "replay")
    wins; otherwise passing a ``trace`` selects the replay engine and
    plain calls execute the binary once.  With ``engine="replay"`` and
    no trace, one is captured on the fly — same result, none of the
    reuse.  The pipeline always replays; ``engine="execute"`` is the
    differential reference that ``replay_check``, claim 14 and the
    replay property tests compare against.

    ``replay_check`` (or the ``REPRO_REPLAY_CHECK=1`` environment
    variable) runs both engines on identical simulator copies and raises
    :class:`~repro.sim.replay.ReplayMismatchError` unless the two
    :class:`SimulationReport`\\ s are bit-identical.

    Duplicate simulator instances in ``archs`` are dropped (by identity):
    feeding the same object twice would double-count every event.
    """
    if archs is not None:
        sims = list(dict.fromkeys(archs))
    else:
        sims = default_architectures(linked, profile)
    if engine is None:
        engine = "replay" if trace is not None else "execute"
    if engine == "execute":
        return _simulate_execute(linked, sims, seed)
    if engine != "replay":
        raise ValueError(f"unknown simulation engine {engine!r}")

    from .replay import ReplayMismatchError, run_architectures

    if trace is None:
        trace = capture_decisions(linked.program, seed=seed)
    if replay_check is None:
        replay_check = replay_check_enabled()
    shadow = copy.deepcopy(sims) if replay_check else None
    instructions, events, cond_executed, cond_taken = run_architectures(linked, trace, sims)
    report = _report_from(sims, instructions, events, cond_taken, cond_executed)
    if replay_check:
        assert shadow is not None
        legacy = _simulate_execute(linked, shadow, seed)
        if legacy != report:
            raise ReplayMismatchError(
                "replay diverged from execute:\n"
                f"  replay:  {report}\n  execute: {legacy}"
            )
    return report


def relative_cpi(instructions: int, bep: float, original_instructions: int) -> float:
    """Standalone relative-CPI helper (see :class:`SimulationReport`)."""
    if original_instructions <= 0:
        raise ValueError("original instruction count must be positive")
    return (instructions + bep) / original_instructions
