"""The runner's judges see exactly the layouts the unit measured.

The oracle and the prover receive the experiment's own aligned layouts
instead of re-deriving them, so every aligner runs once per unit, a
static-profile run is judged on the static-profile layouts it linked,
and a figure4 unit is judged on its two layouts only.
"""

from collections import Counter

import pytest

import repro.oracle
import repro.staticcheck.binary
from repro.analysis import experiment
from repro.core.registry import AlignerPlan, AlignerSpec, AlignerVariant
from repro.runner import RunnerConfig, run_figure4_resilient, run_suite_resilient

ARCHS = ("fallthrough", "btfnt")
SCALE = 0.02
WINDOW = 6
JUDGES = RunnerConfig(oracle=True, prove=True)


def _shape(layout):
    """A comparable form of a ProgramLayout (it defines no equality)."""
    return {name: proc.placements for name, proc in layout.layouts.items()}


@pytest.fixture
def judged(monkeypatch):
    """Record the labelled layouts each judge is handed."""
    seen = {"oracle": [], "prove": []}
    verify, prove = repro.oracle.verify_alignments, repro.staticcheck.binary.prove_layouts

    def recording_verify(program, profile, layouts, **kwargs):
        seen["oracle"].append(dict(layouts))
        return verify(program, profile, layouts, **kwargs)

    def recording_prove(program, layouts, **kwargs):
        seen["prove"].append(dict(layouts))
        return prove(program, layouts, **kwargs)

    monkeypatch.setattr(repro.oracle, "verify_alignments", recording_verify)
    monkeypatch.setattr(repro.staticcheck.binary, "prove_layouts", recording_prove)
    return seen


class _Counting:
    """An aligner wrapper that counts its ``align`` calls per label."""

    def __init__(self, inner, label, calls):
        self.inner, self.label, self.calls = inner, label, calls

    def align(self, program, profile):
        self.calls[self.label] += 1
        return self.inner.align(program, profile)


def test_each_variant_aligns_once_per_judged_unit(monkeypatch):
    calls = Counter()
    plan = AlignerSpec.plan

    def counting_plan(self, *args, **kwargs):
        planned = plan(self, *args, **kwargs)
        variants = tuple(
            AlignerVariant(v.label, _Counting(v.aligner, v.label, calls), v.archs)
            for v in planned.variants
        )
        return AlignerPlan(planned.spec, variants, planned.skips)

    monkeypatch.setattr(AlignerSpec, "plan", counting_plan)
    result = run_suite_resilient(
        ["eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS, config=JUDGES
    )
    assert not result.partial
    assert set(calls) == {
        "greedy", "greedy-btfnt", f"try{WINDOW}-fallthrough", f"try{WINDOW}-btfnt",
        "exttsp", "disptree",
    }
    assert set(calls.values()) == {1}, calls


def test_static_profile_runs_judge_the_linked_layouts(monkeypatch, judged):
    linked = []
    link = experiment.link

    def recording_link(layout):
        linked.append(_shape(layout))
        return link(layout)

    monkeypatch.setattr(experiment, "link", recording_link)
    result = run_suite_resilient(
        ["eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS, config=JUDGES,
        profile_source="static",
    )
    assert not result.partial
    for judge in ("oracle", "prove"):
        (layouts,) = judged[judge]
        assert [_shape(layout) for layout in layouts.values()] == linked


def test_figure4_unit_judges_its_two_layouts(judged):
    result = run_figure4_resilient(
        ["eqntott"], scale=SCALE, window=WINDOW, config=JUDGES
    )
    assert not result.partial
    for judge in ("oracle", "prove"):
        (layouts,) = judged[judge]
        assert set(layouts) == {"greedy", f"try{WINDOW}-btb"}
