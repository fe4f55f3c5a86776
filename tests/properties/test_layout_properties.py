"""Property tests: every aligner preserves program semantics.

The central invariant of the whole system: branch alignment is a pure
layout transformation.  For any program and any alignment algorithm, the
aligned binary must traverse exactly the same sequence of CFG edges as the
original on the same input, and the layout must survive its structural
checks.
"""

import pytest
from hypothesis import given, settings

from repro.core import CostAligner, GreedyAligner, TryNAligner, make_model
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.sim.executor import execute

from .strategies import programs

ALIGNER_FACTORIES = [
    lambda: GreedyAligner(),
    lambda: GreedyAligner(chain_order="btfnt"),
    lambda: CostAligner(make_model("fallthrough")),
    lambda: CostAligner(make_model("btb")),
    lambda: TryNAligner(make_model("likely"), window=6),
    lambda: TryNAligner.for_architecture("btfnt", window=6),
]


def edge_trace(linked, seed=0):
    edges = []
    execute(linked, profile_hook=lambda p, s, d: edges.append((p, s, d)), seed=seed)
    return edges


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_alignment_preserves_edge_trace(program):
    profile = profile_program(program, seed=0)
    original = edge_trace(link_identity(program))
    for factory in ALIGNER_FACTORIES:
        layout = factory().align(program, profile)
        layout["main"].check()
        assert edge_trace(link(layout)) == original


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_alignment_is_a_block_permutation(program):
    profile = profile_program(program, seed=0)
    proc = program.procedure("main")
    for factory in ALIGNER_FACTORIES:
        layout = factory().align(program, profile)["main"]
        assert sorted(p.bid for p in layout.placements) == sorted(proc.blocks)
        assert layout.placements[0].bid == proc.entry


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_size_delta_only_from_jump_rewrites(program):
    profile = profile_program(program, seed=0)
    proc = program.procedure("main")
    for factory in ALIGNER_FACTORIES:
        layout = factory().align(program, profile)["main"]
        expected = (
            proc.instruction_count()
            + len(layout.inserted_jumps())
            - len(layout.removed_branches())
        )
        assert layout.total_size() == expected


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_refinement_never_increases_model_cost(program):
    """refine_senses is exact: it can only lower the modelled cost."""
    from repro.core.refine import refine_senses
    from repro.isa import ProgramLayout

    profile = profile_program(program, seed=0)
    base_layout = GreedyAligner().align(program, profile)
    for arch in ("fallthrough", "btfnt", "likely", "pht", "btb"):
        model = make_model(arch)
        base = base_layout["main"]
        order = [p.bid for p in base.placements]
        refined = ProgramLayout(
            program,
            {"main": refine_senses(base.procedure, order, model, profile)},
        )
        assert model.layout_cost(link(refined), profile) <= model.layout_cost(
            link(base_layout), profile
        ) + 1e-6


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_identity_layout_round_trips_through_encoder(program):
    linked = link_identity(program)
    assert linked.total_size() == program.instruction_count()
    listing = linked.disassemble()
    assert len(listing) == linked.total_size()


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_reprofiling_aligned_binary_reproduces_the_profile(program):
    """Profiles are keyed by stable block ids, so profiling the *aligned*
    binary on the same input must reproduce the original profile exactly —
    the invariant that lets one profile drive any number of re-layouts."""
    from repro.profiling import EdgeProfile
    from repro.sim.executor import execute

    original_profile = EdgeProfile()
    execute(link_identity(program), profile_hook=original_profile.hook, seed=0)

    layout = GreedyAligner().align(program, original_profile)
    aligned_profile = EdgeProfile()
    execute(link(layout), profile_hook=aligned_profile.hook, seed=0)
    assert aligned_profile == original_profile


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_alignment_is_idempotent_per_profile(program):
    """Re-aligning with the same profile yields the identical layout."""
    profile = profile_program(program, seed=0)
    for factory in (lambda: GreedyAligner(),
                    lambda: TryNAligner(make_model("likely"), window=6)):
        first = factory().align(program, profile)["main"]
        second = factory().align(program, profile)["main"]
        assert [p for p in first.placements] == [p for p in second.placements]
