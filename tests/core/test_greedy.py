"""Unit tests for the Pettis–Hansen greedy aligner."""

from repro.core import GreedyAligner
from repro.profiling import EdgeProfile, profile_program
from tests.conftest import diamond_procedure, loop_procedure


def _labels(proc):
    return {b.label: b.bid for b in proc}


class TestGreedyChains:
    def test_hot_else_side_becomes_fallthrough(self):
        """An else-hot diamond gets its conditional inverted."""
        proc = diamond_procedure(p_then=0.1)
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["entry"], ids["test"], 100)
        profile.set_weight(proc.name, ids["test"], ids["else"], 90)
        profile.set_weight(proc.name, ids["test"], ids["then"], 10)
        profile.set_weight(proc.name, ids["else"], ids["join"], 90)
        profile.set_weight(proc.name, ids["then"], ids["endthen"], 10)
        profile.set_weight(proc.name, ids["endthen"], ids["join"], 10)
        profile.set_weight(proc.name, ids["join"], ids["exit"], 100)
        chains = GreedyAligner().build_chains(proc, profile)
        assert chains.succ[ids["test"]] == ids["else"]
        assert chains.succ[ids["else"]] == ids["join"]

    def test_heaviest_edge_wins_conflicts(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        # join has two predecessors wanting it; else is hotter.
        profile.set_weight(proc.name, ids["else"], ids["join"], 90)
        profile.set_weight(proc.name, ids["endthen"], ids["join"], 10)
        chains = GreedyAligner().build_chains(proc, profile)
        assert chains.succ[ids["else"]] == ids["join"]
        assert chains.succ[ids["endthen"]] is None

    def test_loop_back_edge_never_closes_chain_cycle(self):
        proc = loop_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["body"], ids["latch"], 10)
        profile.set_weight(proc.name, ids["latch"], ids["body"], 9)
        profile.set_weight(proc.name, ids["latch"], ids["exit"], 1)
        chains = GreedyAligner().build_chains(proc, profile)
        chains.check()
        # body->latch links first (heavier); latch->body would be a cycle.
        assert chains.succ[ids["body"]] == ids["latch"]
        assert chains.succ[ids["latch"]] == ids["exit"]

    def test_cold_edges_still_chained(self):
        # Never-executed regions get threaded too (the static sweep).
        proc = diamond_procedure()
        profile = EdgeProfile()  # completely empty profile
        chains = GreedyAligner().build_chains(proc, profile)
        chains.check()
        linked_pairs = sum(1 for b in proc.blocks if chains.succ[b] is not None)
        assert linked_pairs >= 4


class TestGreedyLayout:
    def test_layout_valid_on_real_profile(self, loop_program):
        profile = profile_program(loop_program)
        layout = GreedyAligner().align(loop_program, profile)
        layout["main"].check()

    def test_greedy_is_architecture_blind(self, loop_program):
        assert GreedyAligner().model is None

    def test_chain_order_variants_both_work(self, loop_program):
        profile = profile_program(loop_program)
        for order in ("weight", "btfnt"):
            layout = GreedyAligner(chain_order=order).align(loop_program, profile)
            layout["main"].check()

    def test_deterministic(self, diamond_program):
        profile = profile_program(diamond_program)
        a = GreedyAligner().align(diamond_program, profile)
        b = GreedyAligner().align(diamond_program, profile)
        assert [p.bid for p in a["main"].placements] == [
            p.bid for p in b["main"].placements
        ]

    def test_entry_stays_first(self, diamond_program):
        profile = profile_program(diamond_program)
        layout = GreedyAligner().align(diamond_program, profile)
        assert layout["main"].placements[0].bid == diamond_program.procedure("main").entry
