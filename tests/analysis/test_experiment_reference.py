"""The Tables 3/4 experiment against the per-variant loop it replaced.

:func:`~repro.analysis.experiment.run_benchmark_experiment` links,
validates and replays an aligned layout only for the architectures its
image (by :func:`~repro.isa.layout.layout_key`) has not been replayed on
yet; the original image covers every architecture.  This module keeps
the loop that linked, validated and replayed every variant on its own
as the reference, and requires equal experiments (outcomes, skips,
``original_instructions``) and equal measured layouts on the whole
suite, at two behaviour seeds, with measured and static profiles.
"""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro.analysis.experiment import (
    BenchmarkExperiment,
    _report_outcomes,
    checked_link,
    make_arch_sims,
    run_benchmark_experiment,
)
from repro.core.registry import plan_algorithms
from repro.isa import ProgramLayout, link_identity
from repro.profiling import EdgeProfile, StaticProfile
from repro.sim.decisions import capture_decisions
from repro.sim.metrics import ALL_ARCHS, simulate
from repro.workloads import SUITE, benchmark_names, generate_benchmark

SCALE = 0.05
SEEDS = (0, 7)
WINDOW = 15


def reference_experiment(
    name: str,
    program,
    trace,
    profile: EdgeProfile,
    seed: int,
    profile_source: str,
    layouts: Optional[Dict[str, ProgramLayout]] = None,
) -> BenchmarkExperiment:
    """The per-variant loop: every variant linked, validated and replayed."""
    if profile_source == "static":
        align_profile: EdgeProfile = StaticProfile.from_program(program)
    else:
        align_profile = profile
    result = BenchmarkExperiment(
        name=name, category=SUITE[name].category, original_instructions=0
    )
    orig_linked = link_identity(program)
    orig_report = simulate(
        orig_linked, profile, archs=make_arch_sims(ALL_ARCHS, orig_linked, profile),
        seed=seed, trace=trace,
    )
    base = orig_report.instructions
    result.original_instructions = base
    for plan in plan_algorithms(None, ALL_ARCHS, window=WINDOW):
        bucket = result.outcomes.setdefault(plan.spec.name, {})
        if plan.skips:
            result.skips[plan.spec.name] = dict(plan.skips)
        if plan.spec.identity:
            served = tuple(a for v in plan.variants for a in v.archs)
            bucket.update(_report_outcomes(orig_report, served, base))
            continue
        for variant in plan.variants:
            layout = variant.aligner.align(program, align_profile)
            if layouts is not None:
                layouts[variant.label] = layout
            linked = checked_link(layout, validate=True)
            report = simulate(
                linked, profile, archs=make_arch_sims(variant.archs, linked, profile),
                seed=seed, trace=trace,
            )
            bucket.update(_report_outcomes(report, variant.archs, base))
    return result


def _shape(layout: ProgramLayout):
    """A comparable form of a ProgramLayout (it defines no equality)."""
    return {name: proc.placements for name, proc in layout.layouts.items()}


@pytest.mark.parametrize("name", benchmark_names())
def test_experiment_matches_the_per_variant_loop(monkeypatch, name):
    monkeypatch.delenv("REPRO_REPLAY_CHECK", raising=False)
    program = generate_benchmark(name, SCALE)
    for seed in SEEDS:
        trace = capture_decisions(program, seed=seed)
        profile = trace.edge_profile(program)
        for source in ("measured", "static"):
            want_layouts: Dict[str, ProgramLayout] = {}
            got_layouts: Dict[str, ProgramLayout] = {}
            want = reference_experiment(
                name, program, trace, profile, seed, source, want_layouts
            )
            got = run_benchmark_experiment(
                name, program=program, seed=seed, window=WINDOW, profile=profile,
                validate=True, trace=trace, profile_source=source,
                layouts=got_layouts,
            )
            assert got == want, (name, seed, source)
            assert list(got_layouts) == list(want_layouts)
            assert [_shape(v) for v in got_layouts.values()] == [
                _shape(v) for v in want_layouts.values()
            ], (name, seed, source)

