"""Tests for the layout-quality metrics."""

import pytest

from repro.analysis import compare_layout_quality, layout_quality
from repro.core import GreedyAligner, TryNAligner, make_model
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.sim.metrics import simulate
from repro.workloads import generate_benchmark


@pytest.fixture(scope="module")
def setup():
    program = generate_benchmark("eqntott", 0.05)
    profile = profile_program(program)
    original = link_identity(program)
    aligned = link(
        TryNAligner.for_architecture("likely").align(program, profile)
    )
    return program, profile, original, aligned


class TestLayoutQuality:
    def test_agrees_with_simulated_fallthrough_rate(self, setup):
        """The static computation must match the simulator's %FT."""
        program, profile, original, aligned = setup
        for linked in (original, aligned):
            static = layout_quality(linked, profile)
            simulated = simulate(linked, profile)
            assert static.percent_fallthrough == pytest.approx(
                simulated.percent_fallthrough, abs=0.2
            )

    def test_alignment_raises_fallthrough_rate(self, setup):
        _program, profile, original, aligned = setup
        before = layout_quality(original, profile)
        after = layout_quality(aligned, profile)
        assert after.percent_fallthrough > before.percent_fallthrough + 10

    def test_alignment_raises_backwardness_of_taken(self, setup):
        """Under the LIKELY-search + refine pipeline, surviving taken-hot
        branches end up predominantly backward."""
        _program, profile, _original, aligned = setup
        after = layout_quality(aligned, profile)
        assert after.percent_taken_backward > 50.0

    def test_size_delta_matches_layout(self, setup):
        program, profile, _original, aligned = setup
        quality = layout_quality(aligned, profile)
        expected = sum(
            len(aligned.layout[name].inserted_jumps())
            - len(aligned.layout[name].removed_branches())
            for name in program.order
        )
        assert quality.static_size_delta == expected

    def test_identity_layout_has_no_inserted_jumps(self, setup):
        _program, profile, original, _aligned = setup
        quality = layout_quality(original, profile)
        assert quality.inserted_jump_executed == 0
        assert quality.static_size_delta == 0

    def test_chain_statistics(self, setup):
        program, profile, original, _aligned = setup
        quality = layout_quality(original, profile)
        total_blocks = sum(len(p) for p in program)
        assert 1 <= quality.chains <= total_blocks
        assert 1 <= quality.longest_chain <= total_blocks

    def test_empty_profile_percent(self, setup):
        from repro.profiling import EdgeProfile

        _program, _profile, original, _aligned = setup
        quality = layout_quality(original, EdgeProfile())
        assert quality.percent_fallthrough == 100.0
        assert quality.percent_taken_backward == 0.0


class TestRendering:
    def test_side_by_side_table(self, setup):
        _program, profile, original, aligned = setup
        text = compare_layout_quality({
            "orig": layout_quality(original, profile),
            "try15": layout_quality(aligned, profile),
        })
        assert "orig" in text and "try15" in text
        assert "% fall-through conds" in text
        assert "%%" not in text
