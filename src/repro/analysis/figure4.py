"""Figure 4: total execution time on the Alpha AXP 21064 model.

The paper measured wall-clock time for the SPEC92 C programs linked three
ways: the original OM output, the Pettis–Hansen (Greedy) alignment with
highest-executed-first chain ordering, and Try15 using the BTB cost model
("the same alignment as used for the BTB simulations").  We substitute the
21064 front-end timing model for the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cfg import Program
from ..core import GreedyAligner, TryNAligner, make_model
from ..isa.encoder import LinkedProgram, link_identity
from ..isa.layout import ProgramLayout
from ..profiling import EdgeProfile
from ..sim.alpha import AlphaConfig, alpha_execution_cycles
from ..sim.decisions import DecisionTrace, capture_decisions
from ..workloads import FIGURE4_PROGRAMS, generate_benchmark
from .experiment import checked_link, run_aligner


@dataclass
class Figure4Row:
    """Relative execution times of one program (original = 1.0)."""

    name: str
    original_cycles: float
    greedy_cycles: float
    try15_cycles: float

    @property
    def greedy_relative(self) -> float:
        return self.greedy_cycles / self.original_cycles

    @property
    def try15_relative(self) -> float:
        return self.try15_cycles / self.original_cycles

    @property
    def try15_improvement_percent(self) -> float:
        """Speedup of Try15 over the original binary, in percent."""
        return 100.0 * (1.0 - self.try15_relative)


def run_figure4_program(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    config: AlphaConfig = AlphaConfig(),
    program: Optional[Program] = None,
    profile: Optional[EdgeProfile] = None,
    validate: bool = False,
    layouts: Optional[Dict[str, ProgramLayout]] = None,
    trace: Optional[DecisionTrace] = None,
    replay_check: Optional[bool] = None,
) -> Figure4Row:
    """Model Figure 4's hardware measurement for one program.

    This is the per-benchmark unit the resilient runner isolates.  The
    workload's decisions are captured once (or handed in as ``trace``)
    and replayed through all three images; the aligners' edge profile
    comes from the same trace unless ``profile`` is given.
    ``program``/``profile`` let a caller that already traced the
    workload (and validated the profile) hand both in, and ``validate``
    runs the layout/address invariant checks after each alignment.
    ``replay_check`` (default ``REPRO_REPLAY_CHECK``) also executes each
    image and requires identical Alpha tallies.  ``layouts``, when
    given, receives the two aligned layouts, labelled ``greedy`` and
    ``try{window}-btb`` as in the experiment.
    """
    if program is None:
        program = generate_benchmark(name, scale)
    if trace is None:
        trace = capture_decisions(program, seed=seed)
    if profile is None:
        profile = trace.edge_profile(program)

    def cycles(linked: LinkedProgram) -> float:
        return alpha_execution_cycles(
            linked, trace, seed=seed, config=config, replay_check=replay_check
        ).cycles

    original = cycles(link_identity(program))

    greedy_layout = run_aligner(GreedyAligner(chain_order="weight"), program, profile)
    greedy = cycles(checked_link(greedy_layout, validate))

    try_aligner = TryNAligner(make_model("btb"), window=window)
    try_layout = run_aligner(try_aligner, program, profile)
    try15 = cycles(checked_link(try_layout, validate))
    if layouts is not None:
        layouts["greedy"] = greedy_layout
        layouts[f"try{window}-btb"] = try_layout

    return Figure4Row(
        name=name,
        original_cycles=original,
        greedy_cycles=greedy,
        try15_cycles=try15,
    )


def run_figure4(
    names: Sequence[str] = FIGURE4_PROGRAMS,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    config: AlphaConfig = AlphaConfig(),
    runner: Optional[object] = None,
) -> List[Figure4Row]:
    """Model Figure 4's hardware measurement for the given programs.

    Runs through :func:`repro.runner.run_units`; ``runner`` is a
    :class:`repro.runner.RunnerConfig` or a
    :class:`repro.fabric.FabricConfig`, and the default matches the old
    in-process fail-fast behaviour (see :func:`run_suite_experiment`).
    """
    from ..runner import RunnerConfig, run_figure4_resilient

    result = run_figure4_resilient(
        names, scale=scale, seed=seed, window=window, alpha_config=config,
        config=runner if runner is not None else RunnerConfig(fail_fast=True),
    )
    return result.results
