"""The runner's judges see exactly the layouts the unit measured.

The oracle and the prover receive the experiment's own aligned layouts
instead of re-deriving them, so every aligner runs once per unit, a
static-profile run is judged on the static-profile layouts it linked,
and a figure4 unit is judged on its two layouts only — and replayed
from the one decision trace the unit captured.  Equal layouts are
linked, replayed, proved and checked once per image.
"""

import importlib
import sys
from collections import Counter

import pytest

import repro.oracle
import repro.staticcheck.binary
from repro.analysis import experiment
from repro.core.registry import AlignerPlan, AlignerSpec, AlignerVariant, plan_algorithms
from repro.isa import ProgramLayout
from repro.oracle import oracle as oracle_module
from repro.runner import RunnerConfig, run_figure4_resilient, run_suite_resilient
from repro.sim import decisions, executor
from repro.sim.metrics import ALL_ARCHS
from repro.staticcheck.binary import equiv
from repro.workloads import generate_benchmark

ARCHS = ("fallthrough", "btfnt")
SCALE = 0.02
WINDOW = 6
JUDGES = RunnerConfig(oracle=True, prove=True)
#: The replay engine module (the package attribute ``repro.sim.replay`` is
#: the replay function).
replay_engine = importlib.import_module("repro.sim.replay")


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
        shapes = [_shape(layout) for layout in layouts.values()]
        # Every judged label's layout is one the unit linked (so every
        # distinct judged layout was linked), and nothing linked goes
        # unjudged; a twin of an earlier layout need not be linked again.
        assert all(shape in linked for shape in shapes)
        assert all(shape in shapes for shape in linked)


def test_figure4_unit_judges_its_two_layouts(judged):
    result = run_figure4_resilient(
        ["eqntott"], scale=SCALE, window=WINDOW, config=JUDGES
    )
    assert not result.partial
    for judge in ("oracle", "prove"):
        (layouts,) = judged[judge]
        assert set(layouts) == {"greedy", f"try{WINDOW}-btb"}


def _record_calls(monkeypatch, module, name):
    """Record the results of every call to ``module.name``, wherever the
    package imported it by name."""
    results = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return results


def test_figure4_unit_replays_one_trace(monkeypatch):
    """The unit captures one decision trace; its profile, the three
    Alpha images and the oracle all replay it, and nothing executes."""
    monkeypatch.delenv("REPRO_REPLAY_CHECK", raising=False)
    captured = _record_calls(monkeypatch, decisions, "capture_decisions")
    executed = _record_calls(monkeypatch, executor, "execute")
    handed = []
    verify = repro.oracle.verify_alignments

    def recording_verify(program, profile, layouts, **kwargs):
        handed.append(kwargs.get("decisions"))
        return verify(program, profile, layouts, **kwargs)

    monkeypatch.setattr(repro.oracle, "verify_alignments", recording_verify)
    result = run_figure4_resilient(
        ["eqntott"], scale=SCALE, window=WINDOW, config=RunnerConfig(oracle=True)
    )
    assert not result.partial
    assert len(captured) == 1
    assert len(handed) == 1 and handed[0] is captured[0]
    assert executed == []


def test_judged_unit_works_once_per_distinct_layout(monkeypatch, judged):
    """alvinn: 7 of its 9 aligned layouts equal the original.  The unit
    links each distinct layout (the original's twin included), the
    prover proves and the oracle binds each one once, and replay runs
    once per image and architecture group that image still lacked."""
    monkeypatch.delenv("REPRO_REPLAY_CHECK", raising=False)
    proved = _record_calls(monkeypatch, equiv, "prove_cfgs")
    images = _record_calls(monkeypatch, oracle_module, "_Image")
    replays = _record_calls(monkeypatch, replay_engine, "run_architectures")
    linked = _record_calls(monkeypatch, experiment, "checked_link")
    result = run_suite_resilient(["alvinn"], scale=0.05, config=JUDGES)
    assert not result.partial

    (layouts,) = judged["prove"]
    shapes = [_shape(layout) for layout in layouts.values()]
    distinct = [shape for i, shape in enumerate(shapes) if shape not in shapes[:i]]
    identity = _shape(ProgramLayout.identity(generate_benchmark("alvinn", 0.05)))
    assert identity in distinct and len(distinct) < len(shapes)
    assert len(proved) == len(distinct)
    assert len(images) == 1 + len(distinct)  # the original image, then each layout
    assert all(_shape(image.layout) in distinct for image in linked)
    assert all(shape in [_shape(image.layout) for image in linked] for shape in distinct)

    # The rule: the original image is replayed on every architecture; a
    # variant replays only the architectures its image still lacks.
    archs = {
        variant.label: set(variant.archs)
        for plan in plan_algorithms(None, ALL_ARCHS) if not plan.spec.identity
        for variant in plan.variants
    }
    served = [(identity, set(ALL_ARCHS))]
    allowed = 1
    for label, shape in zip(layouts, shapes):
        image = next((entry for entry in served if entry[0] == shape), None)
        if image is None:
            served.append((shape, set(archs[label])))
            allowed += 1
        elif not archs[label] <= image[1]:
            image[1].update(archs[label])
            allowed += 1
    assert len(replays) <= allowed < 1 + len(layouts)
