"""Property tests: the registry contract holds for every contestant.

Two invariants keep the arena honest.  First, every variant the
registry plans — whatever the algorithm, whatever the architecture —
must emit a valid block permutation: every block placed exactly once,
entry first.  Second, the modern entrants (ext-TSP and the dispatch
tree) must survive the same binary round trip the classic aligners do:
link the layout, recover the CFG back from the raw instruction stream,
and prove it bisimilar to the identity image, mirroring
``test_diff_properties.py``'s stream-level scrutiny.  Third, ext-TSP's
incremental merge search must pick the same merges as the direct loop
it replaced, on measured and on tie-heavy drawn profiles alike.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.registry import aligner_names, get_spec, plan_algorithms
from repro.profiling import EdgeProfile, profile_program
from repro.sim.metrics import ALL_ARCHS
from repro.staticcheck.binary import prove_layouts
from tests.core.test_exttsp import assert_matches_reference

from .strategies import programs

#: Small window keeps try-N tractable on hypothesis-sized programs.
WINDOW = 6


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_every_registered_variant_is_a_block_permutation(program):
    """Every variant of every registered algorithm permutes the blocks."""
    profile = profile_program(program, seed=0)
    proc = program.procedure("main")
    seen = set()
    for plan in plan_algorithms(None, ALL_ARCHS, window=WINDOW):
        for variant in plan.variants:
            seen.add(plan.spec.name)
            layout = variant.aligner.align(program, profile)["main"]
            layout.check()
            assert sorted(p.bid for p in layout.placements) == sorted(proc.blocks), (
                f"{variant.label}: not a permutation"
            )
            assert layout.placements[0].bid == proc.entry, (
                f"{variant.label}: entry not first"
            )
    # The sweep really covered the whole registry — no algorithm was
    # silently planned away on the full architecture set.
    assert seen == set(aligner_names())


@settings(max_examples=15, deadline=None)
@given(program=programs())
def test_arena_entrants_round_trip_to_bisimilar_binaries(program):
    """ext-TSP and disptree layouts link -> recover -> prove bisimilar."""
    profile = profile_program(program, seed=0)
    layouts = {}
    for name in ("exttsp", "disptree"):
        plan = get_spec(name).plan(ALL_ARCHS, window=WINDOW)
        for variant in plan.variants:
            layouts[variant.label] = variant.aligner.align(program, profile)
    proofs = prove_layouts(program, layouts)
    for label, proof in proofs.items():
        assert proof.bisimilar, f"{label}: {proof.failures()}"


#: Drawn edge counts: spread out, or all equal where non-zero (ties).
EDGE_WEIGHTS = {
    "random": st.integers(min_value=0, max_value=6),
    "zero-or-three": st.sampled_from([0, 3]),
}


@settings(max_examples=60, deadline=None)
@given(program=programs(), data=st.data())
def test_exttsp_incremental_search_matches_the_direct_loop(program, data):
    """Same chains and placements as the reference loop, whatever the profile."""
    source = data.draw(st.sampled_from(["measured", *EDGE_WEIGHTS]), label="profile")
    if source == "measured":
        profile = profile_program(program, seed=data.draw(st.integers(0, 7)))
    else:
        proc = program.procedure("main")
        profile = EdgeProfile()
        for edge in proc.edges:
            profile.set_weight(proc.name, edge.src, edge.dst,
                               data.draw(EDGE_WEIGHTS[source]))
    assert_matches_reference(program, profile)
