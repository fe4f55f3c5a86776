"""Unit tests for the position-exact sense refinement pass."""

import pytest

from repro.core import make_model
from repro.core.refine import refine_senses
from repro.profiling import EdgeProfile
from tests.conftest import diamond_procedure, loop_procedure


def _labels(proc):
    return {b.label: b.bid for b in proc}


def _diamond_profile(proc, hot_else=True):
    ids = _labels(proc)
    profile = EdgeProfile()
    hot, cold = (ids["else"], ids["then"]) if hot_else else (ids["then"], ids["else"])
    profile.set_weight(proc.name, ids["test"], hot, 90)
    profile.set_weight(proc.name, ids["test"], cold, 10)
    return profile


class TestRefine:
    def test_inverts_hot_taken_forward_branch(self):
        """FALLTHROUGH model: a hot forward taken branch gets inverted even
        though the chain builder left it alone."""
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = _diamond_profile(proc, hot_else=True)
        refined = refine_senses(
            proc, proc.original_order, make_model("fallthrough"), profile
        )
        placement = refined.placements[refined.position[ids["test"]]]
        # Inverted: hot else side becomes the fall-through via a jump.
        assert placement.taken_target == ids["then"]
        assert placement.jump_target == ids["else"]

    def test_keeps_already_good_sense(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = _diamond_profile(proc, hot_else=False)
        refined = refine_senses(
            proc, proc.original_order, make_model("fallthrough"), profile
        )
        placement = refined.placements[refined.position[ids["test"]]]
        assert placement.taken_target == ids["else"]
        assert placement.jump_target is None

    def test_btfnt_keeps_backward_taken_loop(self):
        """A hot backward taken branch is already predicted: no change."""
        proc = loop_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["latch"], ids["body"], 90)
        profile.set_weight(proc.name, ids["latch"], ids["exit"], 10)
        refined = refine_senses(proc, proc.original_order, make_model("btfnt"), profile)
        placement = refined.placements[refined.position[ids["latch"]]]
        assert placement.taken_target == ids["body"]
        assert placement.jump_target is None

    def test_fallthrough_seals_backward_loop(self):
        """FALLTHROUGH mispredicts the hot back edge every iteration; the
        refinement converts it to inverted-plus-jump (5 -> 3 cycles)."""
        proc = loop_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["latch"], ids["body"], 90)
        profile.set_weight(proc.name, ids["latch"], ids["exit"], 10)
        refined = refine_senses(
            proc, proc.original_order, make_model("fallthrough"), profile
        )
        placement = refined.placements[refined.position[ids["latch"]]]
        assert placement.taken_target == ids["exit"]
        assert placement.jump_target == ids["body"]

    def test_refinement_preserves_semantics(self):
        proc = diamond_procedure()
        profile = _diamond_profile(proc)
        refined = refine_senses(
            proc, proc.original_order, make_model("fallthrough"), profile
        )
        refined.check()  # would raise on any lost successor

    def test_refinement_never_raises_model_cost(self):
        proc = loop_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["body"], ids["latch"], 100)
        profile.set_weight(proc.name, ids["latch"], ids["body"], 90)
        profile.set_weight(proc.name, ids["latch"], ids["exit"], 10)
        for arch in ("fallthrough", "btfnt", "likely", "pht", "btb"):
            model = make_model(arch)
            refined = refine_senses(proc, proc.original_order, model, profile)
            # Compare modelled cond costs through a tiny local evaluator:
            # total placed size can grow (jumps), but the model chose the
            # cheaper configuration for every conditional by construction,
            # so re-refining is a fixed point.
            order = [p.bid for p in refined.placements]
            again = refine_senses(proc, order, model, profile)
            assert [p for p in again.placements] == [p for p in refined.placements]
