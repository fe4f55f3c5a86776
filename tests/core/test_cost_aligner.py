"""Unit tests for the Cost heuristic and the shared option enumeration."""

import pytest

from repro.core import ChainSet, CostAligner, block_options, make_model
from repro.isa import link
from repro.profiling import EdgeProfile, profile_program
from tests.conftest import (
    diamond_procedure,
    loop_procedure,
    self_loop_procedure,
)


def _labels(proc):
    return {b.label: b.bid for b in proc}


def _self_loop_profile(proc, trips=30, activations=10):
    ids = _labels(proc)
    profile = EdgeProfile()
    profile.set_weight(proc.name, ids["entry"], ids["loop"], activations)
    profile.set_weight(proc.name, ids["loop"], ids["loop"], (trips - 1) * activations)
    profile.set_weight(proc.name, ids["loop"], ids["exit"], activations)
    return profile


class TestBlockOptions:
    def test_cond_options_cover_all_configurations(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        options = block_options(proc, ids["test"], profile, make_model("likely"), set())
        kinds = [(o.kind, o.target, o.jump) for o in options]
        assert ("link", ids["then"], None) in kinds
        assert ("link", ids["else"], None) in kinds
        assert ("seal", None, ids["then"]) in kinds
        assert ("seal", None, ids["else"]) in kinds

    def test_options_sorted_by_cost(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["test"], ids["else"], 90)
        profile.set_weight(proc.name, ids["test"], ids["then"], 10)
        options = block_options(proc, ids["test"], profile, make_model("fallthrough"), set())
        costs = [o.cost for o in options]
        assert costs == sorted(costs)
        assert options[0].kind == "link" and options[0].target == ids["else"]

    def test_infeasible_links_dropped_with_chains(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        chains = ChainSet(proc)
        chains.link(ids["then"], ids["join"])  # join's pred consumed
        options = block_options(
            proc, ids["else"], EdgeProfile(), make_model("likely"), set(), chains
        )
        assert all(o.kind != "link" for o in options)

    def test_single_exit_options(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["endthen"], ids["join"], 10)
        options = block_options(proc, ids["endthen"], profile, make_model("likely"), set())
        by_kind = {o.kind: o for o in options}
        assert by_kind["link"].cost == 0.0
        assert by_kind["seal"].cost == 20.0  # unconditional costs 2 each

    def test_self_loop_fallthrough_model_prefers_seal(self):
        """The section-4 transformation: invert the self-loop and append a
        jump — 3 cycles per iteration instead of a 5-cycle mispredict."""
        proc = self_loop_procedure()
        ids = _labels(proc)
        profile = _self_loop_profile(proc)
        options = block_options(
            proc, ids["loop"], profile, make_model("fallthrough"),
            proc.cyclic_edge_pairs(), ChainSet(proc),
        )
        best = options[0]
        assert best.kind == "seal" and best.jump == ids["loop"]

    def test_self_loop_btfnt_model_keeps_backward_taken(self):
        proc = self_loop_procedure()
        ids = _labels(proc)
        profile = _self_loop_profile(proc)
        options = block_options(
            proc, ids["loop"], profile, make_model("btfnt"),
            proc.cyclic_edge_pairs(), ChainSet(proc),
        )
        best = options[0]
        # Backward-taken self loop already costs 2/iteration: keep it.
        assert best.kind == "link" and best.target == ids["exit"]


class TestCostAligner:
    def test_self_loop_sealed_under_fallthrough(self, self_loop_program):
        profile = profile_program(self_loop_program)
        aligner = CostAligner(make_model("fallthrough"))
        proc = self_loop_program.procedure("main")
        ids = _labels(proc)
        layout = aligner.align_procedure(proc, profile)
        placement = layout.placements[layout.position[ids["loop"]]]
        assert placement.jump_target == ids["loop"]
        assert placement.taken_target == ids["exit"]

    def test_layout_checks_pass(self, diamond_program):
        profile = profile_program(diamond_program)
        for arch in ("fallthrough", "btfnt", "likely", "pht", "btb"):
            layout = CostAligner(make_model(arch)).align(diamond_program, profile)
            layout["main"].check()

    def test_defers_to_hotter_predecessor(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        # endthen -> join is processed first (heavier)… make else heavier.
        profile.set_weight(proc.name, ids["endthen"], ids["join"], 50)
        profile.set_weight(proc.name, ids["else"], ids["join"], 60)
        aligner = CostAligner(make_model("likely"))
        chains = aligner.build_chains(proc, profile)
        assert chains.succ[ids["else"]] == ids["join"]

    def test_model_attached_for_refinement(self):
        aligner = CostAligner(make_model("btfnt"))
        assert aligner.model is not None
