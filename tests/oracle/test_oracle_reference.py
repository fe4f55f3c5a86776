"""The per-template oracle against the per-step oracle it replaced.

:mod:`repro.oracle.oracle` judges each distinct step template once and
scans the step stream only to index a failing template's first
occurrences.  This module keeps the per-step oracle as the reference:
the capture listener (``TraceCapture``/``capture_trace``) that recorded
every block, conditional outcome and edge of a replayed or executed run,
and the five checks that walked those per-step records.  The tests
require equal reports — label, ``blocks_compared``, ``edges_replayed``
and every divergence's text in order — on clean layouts of the whole
suite, on layout-fault probes (most of which hit the divergence cap),
on a profile from another run and on random placement mutations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfg import BlockId, Program, TerminatorKind
from repro.isa.diff import diff_layouts
from repro.isa.encoder import LinkedProgram, link, link_identity
from repro.isa.layout import LayoutError, ProgramLayout
from repro.oracle import alignment_layouts
from repro.oracle import oracle
from repro.oracle.oracle import (
    MAX_DIVERGENCES,
    Divergence,
    OracleReport,
    _fmt_block,
    _LoweredView,
    _observed_edits,
    _same_destination,
    id_jumps_of,
)
from repro.profiling.edge_profile import EdgeProfile
from repro.runner.faults import _flip_sense, _retarget_transfer, _swap_placement
from repro.sim import trace as tr
from repro.sim.decisions import capture_decisions
from repro.sim.executor import execute
from repro.staticcheck.binary import prove_layouts
from repro.workloads import benchmark_names, generate_benchmark
from tests.properties.strategies import programs

SCALE = 0.05
SEED = 0

# ----------------------------------------------------------------------
# The per-step reference, kept as it was in the oracle package
# ----------------------------------------------------------------------
#: A block in stable coordinates: (procedure name, block id).
BlockRef = Tuple[str, BlockId]


@dataclass
class TraceCapture:
    """Layout-independent record of one execution of a linked binary."""

    #: Dynamic block-visit sequence, in execution order.
    blocks: List[BlockRef] = field(default_factory=list)
    #: Per-execution conditional outcomes: (block, taken-bit-as-emitted).
    cond_outcomes: List[Tuple[BlockRef, bool]] = field(default_factory=list)
    #: Emitted unconditional-branch sites (layout-inserted jumps included).
    uncond_sites: List[BlockRef] = field(default_factory=list)
    #: Intra-procedural edge traversal counts: (proc, src, dst) -> count.
    edge_counts: Dict[Tuple[str, BlockId, BlockId], int] = field(default_factory=dict)
    #: Ordered intra-procedural edge traversals — the semantic decision
    #: sequence the oracle replays through an aligned image.
    edge_trail: List[Tuple[str, BlockId, BlockId]] = field(default_factory=list)
    instructions: int = 0
    events: int = 0

    def __len__(self) -> int:
        return len(self.blocks)


class _CaptureListener:
    """Event/block listener translating addresses back to block ids."""

    def __init__(self, linked: LinkedProgram, trail: bool = True):
        self.capture = TraceCapture()
        self.trail = trail
        self.site_to_block: Dict[int, BlockRef] = {}
        for proc_name, placed in linked.blocks.items():
            for bid, lb in placed.items():
                if lb.term_address is not None:
                    self.site_to_block[lb.term_address] = (proc_name, bid)
                if lb.jump_address is not None:
                    self.site_to_block[lb.jump_address] = (proc_name, bid)

    def on_block(self, proc_name: str, bid: BlockId) -> None:
        self.capture.blocks.append((proc_name, bid))

    def on_event(self, event: tr.Event) -> None:
        kind, site, _target, taken = event
        if kind == tr.COND:
            self.capture.cond_outcomes.append((self.site_to_block[site], taken))
        elif kind == tr.UNCOND:
            self.capture.uncond_sites.append(self.site_to_block[site])

    def hook(self, proc_name: str, src: BlockId, dst: BlockId) -> None:
        key = (proc_name, src, dst)
        self.capture.edge_counts[key] = self.capture.edge_counts.get(key, 0) + 1
        if self.trail:
            self.capture.edge_trail.append(key)


def capture_trace(
    linked: LinkedProgram,
    seed: int = 0,
    max_events: Optional[int] = None,
    trail: bool = True,
    decisions=None,
) -> TraceCapture:
    """Execute ``linked`` and record its semantic trace.

    Identical seeds replay identical inputs, so two captures of the same
    program under different layouts are directly comparable.  ``trail``
    keeps the ordered edge sequence; disable it for aligned-side captures
    where only counts and outcomes are compared (halves the memory).

    ``decisions`` replays a captured
    :class:`~repro.sim.decisions.DecisionTrace` through ``linked``
    instead of re-executing: one real execution then serves the baseline
    and every aligned layout (``seed`` and ``max_events`` are ignored —
    the trace already fixes the inputs, and a replay runs whole).
    """
    listener = _CaptureListener(linked, trail=trail)
    if decisions is not None:
        from repro.sim.replay import replay

        result = replay(
            linked,
            decisions,
            listeners=(listener,),
            profile_hook=listener.hook,
            block_hook=listener.on_block,
        )
    else:
        result = execute(
            linked,
            listeners=(listener,),
            profile_hook=listener.hook,
            block_hook=listener.on_block,
            seed=seed,
            max_events=max_events,
        )
    listener.capture.instructions = result.instructions
    listener.capture.events = result.events
    return listener.capture


def _check_block_sequence(
    baseline: TraceCapture, aligned: TraceCapture
) -> List[Divergence]:
    out: List[Divergence] = []
    for index, (expected, actual) in enumerate(zip(baseline.blocks, aligned.blocks)):
        if expected != actual:
            out.append(Divergence(
                "block-sequence", index, _fmt_block(expected), _fmt_block(actual),
            ))
            if len(out) >= MAX_DIVERGENCES:
                return out
    if len(baseline.blocks) != len(aligned.blocks):
        out.append(Divergence(
            "block-sequence",
            min(len(baseline.blocks), len(aligned.blocks)),
            f"{len(baseline.blocks)} blocks",
            f"{len(aligned.blocks)} blocks",
            "trace lengths differ",
        ))
    return out


def _check_branch_sense(
    baseline: TraceCapture, aligned: TraceCapture, layout: ProgramLayout
) -> List[Divergence]:
    inverted = {
        (name, bid)
        for name in layout.program.order
        for bid in layout[name].inverted_conditionals()
    }
    out: List[Divergence] = []
    for index, ((ref0, taken0), (ref1, taken1)) in enumerate(
        zip(baseline.cond_outcomes, aligned.cond_outcomes)
    ):
        if ref0 != ref1:
            out.append(Divergence(
                "branch-sense", index, _fmt_block(ref0), _fmt_block(ref1),
                "conditional executed out of order",
            ))
        else:
            expected = taken0 != (ref0 in inverted)
            if taken1 != expected:
                out.append(Divergence(
                    "branch-sense", index,
                    f"{_fmt_block(ref0)} taken={expected}",
                    f"{_fmt_block(ref1)} taken={taken1}",
                    "outcome disagrees with registered sense inversion",
                ))
        if len(out) >= MAX_DIVERGENCES:
            return out
    if len(baseline.cond_outcomes) != len(aligned.cond_outcomes):
        out.append(Divergence(
            "branch-sense", None,
            f"{len(baseline.cond_outcomes)} conditional executions",
            f"{len(aligned.cond_outcomes)} conditional executions",
        ))
    return out


def _check_flow_conservation(
    profile: EdgeProfile, aligned: TraceCapture
) -> List[Divergence]:
    expected: Dict[Tuple[str, BlockId, BlockId], int] = {}
    for name in profile.procedures():
        for (src, dst), count in profile.proc_edges(name).items():
            if count:
                expected[(name, src, dst)] = count
    out: List[Divergence] = []
    for key in sorted(set(expected) | set(aligned.edge_counts)):
        want, got = expected.get(key, 0), aligned.edge_counts.get(key, 0)
        if want != got:
            proc, src, dst = key
            out.append(Divergence(
                "flow-conservation", None,
                f"{proc}:{src}->{dst} x{want}",
                f"{proc}:{src}->{dst} x{got}",
                "aligned edge counts disagree with the consumed profile",
            ))
            if len(out) >= MAX_DIVERGENCES:
                break
    return out


def _check_address_replay(
    program: Program, baseline: TraceCapture, lowered: _LoweredView
) -> List[Divergence]:
    """Replay the original trace's decisions through the aligned code.

    For every intra-procedural transition ``src -> dst`` the original
    binary performed, derive from the aligned *instruction stream* (not
    the layout data structure) the address control actually transfers
    to, and require it to be ``dst``'s address.
    """
    out: List[Divergence] = []
    kinds = {
        (proc.name, bid): proc.block(bid).kind
        for proc in program
        for bid in proc.blocks
    }
    linked = lowered.linked
    for index, (proc_name, src, dst) in enumerate(baseline.edge_trail):
        ref = (proc_name, src)
        kind = kinds[ref]
        if kind in (TerminatorKind.INDIRECT, TerminatorKind.RETURN):
            continue  # targets are runtime values, not lowered addresses
        lb = linked.block(proc_name, src)
        dst_addr = lowered.start_of[(proc_name, dst)]
        if kind is TerminatorKind.COND:
            branch_target = lowered.term_target.get(ref)
            if branch_target == dst_addr:
                continue  # taken path lands correctly
            reached = lowered.jump_target.get(ref, lb.end)
        elif kind is TerminatorKind.UNCOND:
            if ref in lowered.term_target:
                reached = lowered.term_target[ref]
            else:  # branch deleted by alignment: must fall through
                reached = lowered.jump_target.get(ref, lb.end)
        else:  # FALLTHROUGH
            reached = lowered.jump_target.get(ref, lb.end)
        if reached != dst_addr:
            out.append(Divergence(
                "address-replay", index,
                _fmt_block((proc_name, dst)),
                lowered.resolve(reached),
                f"lowered code for block {_fmt_block(ref)} transfers to "
                f"{reached:#x}, {_fmt_block((proc_name, dst))} lives at "
                f"{dst_addr:#x}",
            ))
            if len(out) >= MAX_DIVERGENCES:
                break
    return out


def _check_edit_agreement(
    program: Program, layout: ProgramLayout, lowered: _LoweredView
) -> List[Divergence]:
    """``isa.diff``'s reported edits must match the lowered code."""
    identity = ProgramLayout.identity(program)
    diffs = {d.name: d for d in diff_layouts(identity, layout)}
    id_view = _LoweredView(link_identity(program))
    id_cond, id_jumps, id_missing = _observed_edits(program, id_view)
    al_cond, al_jumps, al_missing = _observed_edits(program, lowered)

    out: List[Divergence] = []

    def report(expected: str, actual: str, detail: str) -> bool:
        out.append(Divergence("edit-agreement", None, expected, actual, detail))
        return len(out) >= MAX_DIVERGENCES

    for proc in program:
        diff = diffs[proc.name]
        reported_inverted = {(proc.name, bid) for bid in diff.inverted}
        observed_inverted = {
            ref for ref, target in al_cond.items()
            if ref[0] == proc.name
            and not _same_destination(lowered, target, id_view, id_cond.get(ref))
        }
        for ref in sorted(reported_inverted ^ observed_inverted):
            where = "reported" if ref in reported_inverted else "observed"
            if report(
                f"{_fmt_block(ref)} inverted in report and code",
                f"inversion only {where}",
                "diff report and lowered branch sense disagree",
            ):
                return out

        reported_jumps = {
            (proc.name, bid): (proc.name, target)
            for bid, target in id_jumps_of(diff, identity[proc.name]).items()
        }
        observed_jumps = {
            ref: target for ref, target in al_jumps.items() if ref[0] == proc.name
        }
        for ref in sorted(set(reported_jumps) | set(observed_jumps)):
            want, got = reported_jumps.get(ref), observed_jumps.get(ref)
            agrees = (
                want is None and got is None
            ) or (
                want is not None and got is not None
                and want in lowered.blocks_at.get(got, [])
            )
            if not agrees:
                if report(
                    f"jump {_fmt_block(ref)} -> "
                    + (_fmt_block(want) if want else "absent"),
                    f"jump -> "
                    + (lowered.resolve(got) if got is not None else "absent"),
                    "reported jump edits disagree with lowered jumps",
                ):
                    return out

        reported_missing = (
            {(proc.name, bid) for bid in identity[proc.name].removed_branches()}
            - {(proc.name, bid) for bid in diff.branches_restored}
        ) | {(proc.name, bid) for bid in diff.branches_removed}
        observed_missing = {ref for ref in al_missing if ref[0] == proc.name}
        for ref in sorted(reported_missing ^ observed_missing):
            where = "reported" if ref in reported_missing else "observed"
            if report(
                f"{_fmt_block(ref)} branch deleted in report and code",
                f"deletion only {where}",
                "reported branch deletions disagree with lowered code",
            ):
                return out
    return out



def verify_layout(
    program: Program,
    profile: EdgeProfile,
    layout: ProgramLayout,
    seed: int = 0,
    label: str = "aligned",
    baseline: Optional[TraceCapture] = None,
    decisions=None,
) -> OracleReport:
    """Differentially verify one aligned layout against the original.

    ``baseline`` lets callers capture the original trace once and verify
    many layouts against it; ``profile`` must be the edge profile the
    aligner consumed (collected on the original binary with ``seed``).
    ``decisions`` (a :class:`~repro.sim.decisions.DecisionTrace`) replays
    the shared decision stream through both images instead of
    re-executing each one.
    """
    if baseline is None:
        baseline = capture_trace(link_identity(program), seed=seed, decisions=decisions)
    aligned_linked = link(layout)
    aligned = capture_trace(aligned_linked, seed=seed, trail=False, decisions=decisions)
    lowered = _LoweredView(aligned_linked)

    divergences: List[Divergence] = []
    divergences += _check_block_sequence(baseline, aligned)
    divergences += _check_branch_sense(baseline, aligned, layout)
    divergences += _check_flow_conservation(profile, aligned)
    divergences += _check_address_replay(program, baseline, lowered)
    divergences += _check_edit_agreement(program, layout, lowered)
    return OracleReport(
        label=label,
        blocks_compared=len(baseline.blocks),
        edges_replayed=len(baseline.edge_trail),
        divergences=divergences,
    )


def verify_alignments(
    program: Program,
    profile: EdgeProfile,
    layouts: Dict[str, ProgramLayout],
    seed: int = 0,
    decisions=None,
) -> List[OracleReport]:
    """Verify several labelled layouts against one shared baseline.

    The program executes exactly once: its decision trace is captured
    (unless ``decisions`` hands one in) and replayed to produce the
    baseline capture *and* every aligned capture — N layouts cost one
    execution, and baseline/aligned comparability is by construction.
    """
    if decisions is None:
        from repro.sim.decisions import capture_decisions

        decisions = capture_decisions(program, seed=seed)
    baseline = capture_trace(link_identity(program), seed=seed, decisions=decisions)
    return [
        verify_layout(
            program, profile, layout,
            seed=seed, label=label, baseline=baseline, decisions=decisions,
        )
        for label, layout in layouts.items()
    ]


# ----------------------------------------------------------------------
# The per-template oracle must reproduce the reference report for report
# ----------------------------------------------------------------------
#: The programs whose every registry layout gets both layout faults.
PROBED = ("eqntott", "compress", "alvinn", "gcc", "li", "espresso")


@pytest.fixture(scope="module")
def units():
    """(program, decision trace, profile, registry layouts) per benchmark."""
    cache: Dict[str, tuple] = {}

    def unit(name: str) -> tuple:
        if name not in cache:
            program = generate_benchmark(name, SCALE)
            trace = capture_decisions(program, seed=SEED)
            profile = trace.edge_profile(program)
            cache[name] = (program, trace, profile, alignment_layouts(program, profile))
        return cache[name]

    return unit


def _texts(reports: List[OracleReport]) -> List[tuple]:
    return [
        (r.label, r.blocks_compared, r.edges_replayed, [str(d) for d in r.divergences])
        for r in reports
    ]


def assert_matches_reference(program, profile, layouts, trace=None) -> List[OracleReport]:
    """Both oracles' reports on ``layouts``, required equal; returns the new ones."""
    want = verify_alignments(program, profile, layouts, seed=SEED, decisions=trace)
    got = oracle.verify_alignments(program, profile, layouts, seed=SEED, decisions=trace)
    assert _texts(got) == _texts(want)
    assert [r.divergences for r in got] == [r.divergences for r in want]
    return got


def _probes(name: str, profile: EdgeProfile, layouts) -> Dict[str, ProgramLayout]:
    """Both layout faults on every layout, seeded like ``--inject``."""
    probes: Dict[str, ProgramLayout] = {}
    for label, layout in layouts.items():
        flipped = _flip_sense(layout, profile)
        if flipped is not None:
            probes[f"{label}:flip-sense"] = flipped
        rng = random.Random(f"repro-fault:0:{name}:{label}:mutate-layout")
        mutated = _retarget_transfer(layout, profile, rng)
        if mutated is not None:
            probes[f"{label}:mutate-layout"] = mutated
    return probes


@pytest.mark.parametrize("name", benchmark_names())
def test_clean_layouts_match_the_reference(units, name):
    program, trace, profile, layouts = units(name)
    reports = assert_matches_reference(program, profile, layouts, trace)
    assert all(report.passed for report in reports)
    assert all(report.edges_replayed > 0 for report in reports)


def test_layout_fault_probes_match_the_reference(units):
    capped = uncapped = 0
    for name in PROBED:
        program, trace, profile, layouts = units(name)
        probes = _probes(name, profile, layouts)
        for report in assert_matches_reference(program, profile, probes, trace):
            # A placement-level fault is consistent with its own declared
            # edits; only the replay through the lowered code can see it.
            checks = {d.check for d in report.divergences}
            assert checks == {"address-replay"}, (name, report.label, checks)
            if len(report.divergences) == MAX_DIVERGENCES:
                capped += 1
            else:
                uncapped += 1
    assert capped and uncapped, (capped, uncapped)


def test_wrong_profile_matches_the_reference(units):
    program, trace, _profile, layouts = units("compress")
    other = capture_decisions(program, seed=SEED + 1).edge_profile(program)
    reports = assert_matches_reference(program, other, layouts, trace)
    for report in reports:
        flow = [d for d in report.divergences if d.check == "flow-conservation"]
        assert len(flow) == MAX_DIVERGENCES, report.label


def test_without_a_trace_matches_the_executing_reference(units):
    """No trace given: the reference executes, the oracle captures one."""
    program, _trace, profile, layouts = units("eqntott")
    greedy = layouts["greedy"]
    for layout in (greedy, _flip_sense(greedy, profile)):
        want = verify_layout(program, profile, layout, seed=SEED, label="one")
        got = oracle.verify_layout(program, profile, layout, seed=SEED, label="one")
        assert _texts([got]) == _texts([want])


def _mutate_one_placement(data, layout: ProgramLayout) -> ProgramLayout:
    """``layout`` with one field of one placement redrawn at random."""
    program = layout.program
    name = data.draw(st.sampled_from(list(program.order)))
    victim = data.draw(st.sampled_from(list(layout[name].placements)))
    kind = program.procedure(name).block(victim.bid).kind
    bids = sorted(program.procedure(name).blocks)
    fields = ["jump_target"]
    if kind in (TerminatorKind.COND, TerminatorKind.UNCOND):
        fields.append("taken_target")
    if kind is TerminatorKind.UNCOND:
        fields.append("branch_removed")
    which = data.draw(st.sampled_from(fields))
    if which == "branch_removed":
        value = not victim.branch_removed
    elif which == "jump_target":
        value = data.draw(st.sampled_from([None] + bids))
    else:
        value = data.draw(st.sampled_from(bids))
    return _swap_placement(layout, name, victim, replace(victim, **{which: value}))


def _reports_or_error(verify, program, profile, layouts, trace):
    """``verify``'s reports on ``layouts``, or the LayoutError it raised."""
    try:
        return verify(program, profile, layouts, seed=SEED, decisions=trace)
    except LayoutError as exc:
        return exc


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(), data=st.data())
def test_random_placement_mutation_matches_the_reference(program, data):
    trace = capture_decisions(program, seed=SEED)
    profile = trace.edge_profile(program)
    layouts = alignment_layouts(program, profile, window=4, algorithms=("greedy", "exttsp"))
    layouts["orig"] = ProgramLayout.identity(program)
    label = data.draw(st.sampled_from(sorted(layouts)))
    mutated = {label: _mutate_one_placement(data, layouts[label])}
    want = _reports_or_error(verify_alignments, program, profile, mutated, trace)
    got = _reports_or_error(oracle.verify_alignments, program, profile, mutated, trace)
    if isinstance(want, LayoutError) or isinstance(got, LayoutError):
        # A kept branch or an appended jump with no target block cannot
        # be lowered: both oracles must refuse it with the same error.
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert _texts(got) == _texts(want)
    assert [r.divergences for r in got] == [r.divergences for r in want]


def test_a_kept_branch_without_a_target_is_a_layout_error():
    """The draw behind the property's old ``KeyError: None``: an
    unconditional whose deleted branch is put back with no target.  The
    disassembler refuses it with a LayoutError naming the block; both
    oracles raise that error and the prover rejects the layout."""
    program = generate_benchmark("doduc", 0.02)
    trace = capture_decisions(program, seed=SEED)
    profile = trace.edge_profile(program)
    greedy = alignment_layouts(program, profile, algorithms=("greedy",))["greedy"]
    name, victim = next(
        (name, p) for name in program.order for p in greedy[name].placements
        if p.branch_removed
    )
    broken = {"broken": _swap_placement(
        greedy, name, victim, replace(victim, branch_removed=False)
    )}
    message = f"{name}: block {victim.bid} has a kept branch with no target block"
    with pytest.raises(LayoutError, match=re.escape(message)):
        link(broken["broken"]).disassemble()
    for verify in (verify_alignments, oracle.verify_alignments):
        error = _reports_or_error(verify, program, profile, broken, trace)
        assert isinstance(error, LayoutError) and message in str(error)
    proof = prove_layouts(program, broken)["broken"]
    assert not proof.bisimilar
    assert proof.reason.startswith("recovery failed: ") and message in proof.reason
