"""The CFG and layout invariants have one implementation each.

``procedure_findings`` and ``layout_findings`` are what ``Procedure``
and ``ProcedureLayout`` construction raise on and what the lint CFG and
layout passes render, so a corruption one of them rejects the other
must report.  Each case below corrupts one placement of gcc's greedy
layout (or the original order of one procedure) behind the
constructors' backs, the way the fault injector does.
"""

from dataclasses import replace

import pytest

from repro.cfg import CFGError, EdgeKind, Procedure, TerminatorKind
from repro.core import GreedyAligner
from repro.isa import LayoutError, ProcedureLayout, layout_findings
from repro.profiling import profile_program
from repro.runner import ValidationError, validate_layout
from repro.runner.faults import _swap_placement, _unchecked_procedure, _unchecked_program
from repro.staticcheck import run_lint
from repro.workloads import generate_benchmark

CFG_PASSES = ("cfg-unique-blocks", "cfg-entry", "cfg-terminators", "cfg-edge-resolution")
LAYOUT_PASSES = (
    "layout-permutation", "lower-fallthrough", "lower-branch-sense", "lower-transfer-targets",
)


@pytest.fixture(scope="module")
def gcc():
    program = generate_benchmark("gcc", 0.05)
    profile = profile_program(program, seed=0)
    return program, profile, GreedyAligner().align(program, profile)


def _first(layout, kind, removed=False):
    """The first placement of a ``kind`` block (kept or removed branch)."""
    for name in layout.program.order:
        proc = layout[name].procedure
        for placement in layout[name].placements:
            block = proc.block(placement.bid)
            if block.kind is kind and placement.branch_removed is removed:
                return name, placement, proc
    raise AssertionError(f"no {kind.value} placement")


def _successor(proc, bid):
    return proc.out_edges(bid)[0].dst


#: (case, block kind, the corrupted placement, expected lint pass and code)
PLACEMENT_CASES = [
    ("fallthrough-with-taken-target", TerminatorKind.FALLTHROUGH,
     lambda p, proc: replace(p, taken_target=_successor(proc, p.bid)),
     "lower-transfer-targets", "RL012"),
    ("fallthrough-with-branch-removed", TerminatorKind.FALLTHROUGH,
     lambda p, proc: replace(p, branch_removed=True),
     "lower-transfer-targets", "RL012"),
    ("cond-with-branch-removed", TerminatorKind.COND,
     lambda p, proc: replace(p, branch_removed=True),
     "lower-transfer-targets", "RL012"),
    ("cond-without-taken-target", TerminatorKind.COND,
     lambda p, proc: replace(p, taken_target=None),
     "lower-transfer-targets", "RL004"),
    ("uncond-with-appended-jump", TerminatorKind.UNCOND,
     lambda p, proc: replace(p, jump_target=p.taken_target),
     "lower-transfer-targets", "RL012"),
    ("uncond-without-taken-target", TerminatorKind.UNCOND,
     lambda p, proc: replace(p, taken_target=None),
     "lower-transfer-targets", "RL004"),
    ("indirect-with-appended-jump", TerminatorKind.INDIRECT,
     lambda p, proc: replace(p, jump_target=_successor(proc, p.bid)),
     "lower-transfer-targets", "RL012"),
    ("return-with-appended-jump", TerminatorKind.RETURN,
     lambda p, proc: replace(p, jump_target=proc.entry),
     "lower-transfer-targets", "RL012"),
]


def _corrupt_placement(gcc, kind, corrupt):
    _, _, layout = gcc
    name, victim, proc = _first(layout, kind)
    mutated = _swap_placement(layout, name, victim, corrupt(victim, proc))
    return name, victim.bid, mutated


def _non_adjacent_fallthrough(program):
    """A procedure's blocks, edges and an original order that parts one
    fall-through edge: the edge's source moves to the end of the order."""
    for proc in program:
        for edge in proc.edges:
            if edge.kind is EdgeKind.FALLTHROUGH and edge.src != proc.entry:
                order = [bid for bid in proc.original_order if bid != edge.src]
                order.append(edge.src)
                return proc, order
    raise AssertionError("no movable fall-through edge")


CASES = [case[0] for case in PLACEMENT_CASES] + ["non-adjacent-original-fallthrough"]


@pytest.mark.parametrize("case", CASES)
def test_construction_and_lint_reject_the_same_corruption(gcc, case):
    program, profile, layout = gcc
    if case == "non-adjacent-original-fallthrough":
        proc, order = _non_adjacent_fallthrough(program)
        with pytest.raises(CFGError, match="RL003"):
            Procedure(proc.name, [proc.blocks[bid] for bid in order], proc.edges)
        broken = _unchecked_program(program, {
            proc.name: _unchecked_procedure(proc.name, order, proc.blocks, proc.edges)
        })
        report = run_lint(broken, profile)
        assert not report.ok
        errors = [(d.pass_id, d.code, d.procedure) for d in report.errors]
        assert ("cfg-terminators", "RL003", proc.name) in errors, errors
        assert all(pass_id in CFG_PASSES for pass_id, _, _ in errors), errors
        return
    _, kind, corrupt, pass_id, code = next(c for c in PLACEMENT_CASES if c[0] == case)
    name, bid, mutated = _corrupt_placement(gcc, kind, corrupt)
    with pytest.raises(LayoutError, match=code):
        ProcedureLayout(mutated[name].procedure, mutated[name].placements)
    report = run_lint(program, profile, {"greedy": mutated})
    assert not report.ok
    layout_errors = [
        (d.pass_id, d.code, d.procedure, d.block, d.layout)
        for d in report.errors if d.pass_id in LAYOUT_PASSES
    ]
    assert layout_errors == [(pass_id, code, name, bid, "greedy")]


def test_validate_layout_cites_every_finding_with_its_code(gcc):
    _, _, layout = gcc
    name, victim, proc = _first(layout, TerminatorKind.COND)
    flipped = _swap_placement(layout, name, victim, replace(
        victim, taken_target=next(
            e.dst for e in proc.out_edges(victim.bid) if e.dst != victim.taken_target
        ),
    ))
    findings = list(layout_findings(flipped[name]))
    assert [code for code, _, _ in findings] == ["RL005", "RL010"]
    with pytest.raises(ValidationError) as info:
        validate_layout(flipped)
    message = str(info.value)
    assert info.value.stage == "align"
    assert f"RL005 {name}:{victim.bid}: fall-through successor" in message
    assert f"RL010 {name}:{victim.bid}: as placed" in message


def test_a_removed_unconditional_may_keep_its_taken_target(gcc):
    """Construction accepted this before the checks were shared, and the
    linker ignores the field, so lint reports nothing either."""
    program, profile, layout = gcc
    name, victim, proc = _first(layout, TerminatorKind.UNCOND, removed=True)
    kept = replace(victim, taken_target=_successor(proc, victim.bid))
    placements = [kept if p is victim else p for p in layout[name].placements]
    ProcedureLayout(proc, placements)
    mutated = _swap_placement(layout, name, victim, kept)
    assert run_lint(program, profile, {"greedy": mutated}).ok
