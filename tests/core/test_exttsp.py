"""Unit tests for the extended-TSP aligner (arena entrant, 2018)."""

from typing import Dict, List, Tuple

import pytest

from repro.cfg import BlockId, Procedure, Program, TerminatorKind
from repro.core.align import greedy_link_pass
from repro.core.chains import ChainSet
from repro.core.exttsp import (
    BACKWARD_WEIGHT,
    BACKWARD_WINDOW,
    ExtTSPAligner,
    FALLTHROUGH_WEIGHT,
    FORWARD_WEIGHT,
    FORWARD_WINDOW,
    UNCOND_FALLTHROUGH_WEIGHT,
    jump_score,
)
from repro.isa.encoder import INSTRUCTION_BYTES
from repro.profiling import EdgeProfile, profile_program
from repro.workloads import (
    SUITE,
    IfElse,
    ProcedureTemplate,
    Straight,
    WhileLoop,
    generate_benchmark,
)
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic
from tests.conftest import diamond_procedure


class ReferenceExtTSPAligner(ExtTSPAligner):
    """The direct merge loop: every round re-prices every connected pair
    by scanning all weighted edges.  Quadratic and slow, but obviously the
    objective; the incremental search must reproduce it merge for merge.
    """

    # ------------------------------------------------------------------
    def _chain_score(
        self,
        chain: List[BlockId],
        sizes: Dict[BlockId, int],
        edges: List[Tuple[BlockId, BlockId, int, bool]],
    ) -> float:
        """Score of the weighted edges with both endpoints in ``chain``."""
        starts: Dict[BlockId, int] = {}
        cursor = 0
        for bid in chain:
            starts[bid] = cursor
            cursor += sizes[bid]
        score = 0.0
        for src, dst, weight, conditional in edges:
            if src in starts and dst in starts:
                distance = starts[dst] - (starts[src] + sizes[src])
                score += weight * jump_score(distance, conditional)
        return score

    # ------------------------------------------------------------------
    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        chains = ChainSet(proc)
        sizes = {
            bid: proc.block(bid).size * INSTRUCTION_BYTES for bid in proc.blocks
        }
        weighted = [
            (src, dst, weight, proc.block(src).kind is TerminatorKind.COND)
            for (src, dst), weight in profile.sorted_edges(
                proc, min_weight=self.min_weight
            )
        ]
        junction = {
            (src, dst): weight * jump_score(0, cond)
            for src, dst, weight, cond in weighted
        }
        # Greedy merging, best-gain-first.  The gain is lexicographic:
        # the junction's fall-through credit decides, and the
        # distance-decayed jump credits of every other cross edge only
        # break ties and drive credit-only merges.  Without the
        # precedence a 3-point backward-jump credit can outvote a
        # 2-point fall-through difference, trading real fall-throughs
        # for short jumps — the opposite of what K's magnitudes intend.
        while True:
            heads: Dict[BlockId, BlockId] = {}
            for chain in chains.chains():
                for bid in chain:
                    heads[bid] = chain[0]
            linked: Dict[BlockId, List[BlockId]] = {
                head: chains.chain_of(head) for head in set(heads.values())
            }
            pairs = set()
            for src, dst, _weight, _cond in weighted:
                if heads[src] != heads[dst]:
                    pairs.add((heads[src], heads[dst]))
                    pairs.add((heads[dst], heads[src]))
            best_gain = (0.0, 0.0)
            best_pair: Tuple[BlockId, BlockId] | None = None
            for first, second in sorted(pairs):
                left, right = linked[first], linked[second]
                if not chains.can_link(left[-1], right[0]):
                    continue
                total = (
                    self._chain_score(left + right, sizes, weighted)
                    - self._chain_score(left, sizes, weighted)
                    - self._chain_score(right, sizes, weighted)
                )
                adjacency = junction.get((left[-1], right[0]), 0.0)
                gain = (adjacency, total - adjacency)
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (first, second)
            if best_pair is None:
                break
            chains.link(linked[best_pair[0]][-1], linked[best_pair[1]][0])
        # Thread the cold remainder exactly like every other algorithm.
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains


def assert_matches_reference(program: Program, profile: EdgeProfile) -> None:
    """The incremental search links and places exactly like the loop."""
    fast, slow = ExtTSPAligner(), ReferenceExtTSPAligner()
    for name in program.order:
        proc = program.procedure(name)
        fast_chains = fast.build_chains(proc, profile)
        slow_chains = slow.build_chains(proc, profile)
        assert fast_chains.succ == slow_chains.succ, name
    fast_layout = fast.align(program, profile)
    slow_layout = slow.align(program, profile)
    for name in program.order:
        assert fast_layout[name].placements == slow_layout[name].placements, name


def _labels(proc):
    return {b.label: b.bid for b in proc}


class TestJumpScore:
    def test_fallthrough_credit_is_peak_and_kind_aware(self):
        assert jump_score(0, conditional=True) == FALLTHROUGH_WEIGHT
        assert jump_score(0, conditional=False) == UNCOND_FALLTHROUGH_WEIGHT
        assert jump_score(0, conditional=False) < jump_score(0, conditional=True)

    def test_forward_credit_decays_to_window_edge(self):
        near = jump_score(8)
        far = jump_score(FORWARD_WINDOW // 2)
        assert FORWARD_WEIGHT >= near > far > 0.0
        assert jump_score(FORWARD_WINDOW) == 0.0
        assert jump_score(FORWARD_WINDOW + 8) == 0.0

    def test_backward_credit_smaller_than_forward(self):
        assert 0.0 < jump_score(-8) <= BACKWARD_WEIGHT
        assert jump_score(-8) < jump_score(8)
        assert jump_score(-BACKWARD_WINDOW) == 0.0
        assert jump_score(-BACKWARD_WINDOW - 8) == 0.0

    def test_any_jump_credit_below_fallthrough(self):
        # The lexicographic merge gain depends on this: no pile of jump
        # credits may outrank an adjacency fall-through.
        assert max(jump_score(8), jump_score(-8)) < UNCOND_FALLTHROUGH_WEIGHT


class TestExtTSPChains:
    def test_hot_else_side_becomes_fallthrough(self):
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
        chains = ExtTSPAligner().build_chains(proc, profile)
        chains.check()
        assert chains.succ[ids["test"]] == ids["else"]
        assert chains.succ[ids["else"]] == ids["join"]

    def test_cold_blocks_still_threaded(self):
        proc = diamond_procedure()
        chains = ExtTSPAligner().build_chains(proc, EdgeProfile())
        chains.check()
        assert sum(1 for b in proc.blocks if chains.succ[b] is not None) >= 4

    def test_architecture_blind(self):
        assert ExtTSPAligner().model is None


class TestExtTSPLayout:
    def test_layout_is_valid_on_benchmark(self):
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program, seed=0)
        layout = ExtTSPAligner().align(program, profile)
        for name in program.order:
            layout[name].check()

    def test_beats_or_ties_greedy_on_fallthrough_rate(self):
        """The registry's claim 19, in miniature: one shared trace
        replayed through both layouts, ext-TSP makes at least as many
        executed conditionals fall through as Greedy."""
        from repro.analysis import run_benchmark_experiment

        experiment = run_benchmark_experiment(
            "eqntott", scale=0.05, seed=0, archs=("fallthrough",),
            algorithms=("orig", "greedy", "exttsp"),
        )
        ext = experiment.cell("exttsp", "fallthrough").percent_fallthrough
        greedy = experiment.cell("greedy", "fallthrough").percent_fallthrough
        assert ext >= greedy


class TestIncrementalSearchMatchesReference:
    """Re-pricing only the pairs a merge touched must not move a layout."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_suite_program(self, seed):
        for name in SUITE:
            program = generate_benchmark(name, 0.05)
            assert_matches_reference(program, profile_program(program, seed=seed))

    def test_wide_synthetic_program(self):
        # The wide-cfg benchmark recipe, cut to three procedures.
        spec = SyntheticSpec(procedures=3, constructs_per_procedure=8,
                             max_depth=2, driver_iterations=1)
        program = generate_synthetic(spec, seed=0)
        assert_matches_reference(program, profile_program(program, seed=0))

    def test_equal_weights_leave_ties_to_the_pair_order(self):
        # Every edge of a loop nest carries the same count, so most
        # candidate merges tie on gain and the pair order decides them.
        inner = WhileLoop(
            body=[IfElse(then=[Straight(3)], orelse=[Straight(2)]), Straight(4)],
            trips=3,
        )
        outer = WhileLoop(
            body=[Straight(2), inner, IfElse(then=[Straight(1)])],
            trips=4, bottom_test=False,
        )
        template = ProcedureTemplate("main", [Straight(2), outer, Straight(3)])
        program = Program([template.lower()])
        proc = program.procedure("main")
        profile = EdgeProfile()
        for edge in proc.edges:
            profile.set_weight(proc.name, edge.src, edge.dst, 5)
        assert_matches_reference(program, profile)
