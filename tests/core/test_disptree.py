"""Unit tests for the decision-tree trace-growth aligner."""

from repro.cfg import ProcedureBuilder
from repro.core.disptree import DispTreeAligner
from repro.profiling import EdgeProfile, profile_program
from repro.sim.behaviors import Bernoulli
from repro.workloads import generate_benchmark
from tests.conftest import diamond_procedure


def _labels(proc):
    return {b.label: b.bid for b in proc}


def dispatch_ladder(name="ladder"):
    """entry -> test1 -> test2 -> default, cases jumped to on taken."""
    b = ProcedureBuilder(name)
    b.fall("entry", 2)
    b.cond("test1", 2, taken="case1", behavior=Bernoulli(0.05))
    b.cond("test2", 2, taken="case2", behavior=Bernoulli(0.9))
    b.fall("default", 3)
    b.ret("exit", 1)
    b.uncond("case1", 2, target="exit")
    b.uncond("case2", 2, target="exit")
    return b.build()


class TestDispTreeChains:
    def test_hot_dispatch_case_hoisted_onto_spine(self):
        """The most probable outcome of each test becomes its successor,
        even when the CFG reaches it through a taken edge."""
        proc = dispatch_ladder()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["entry"], ids["test1"], 100)
        profile.set_weight(proc.name, ids["test1"], ids["test2"], 95)
        profile.set_weight(proc.name, ids["test1"], ids["case1"], 5)
        profile.set_weight(proc.name, ids["test2"], ids["case2"], 90)
        profile.set_weight(proc.name, ids["test2"], ids["default"], 5)
        profile.set_weight(proc.name, ids["case2"], ids["exit"], 90)
        profile.set_weight(proc.name, ids["case1"], ids["exit"], 5)
        profile.set_weight(proc.name, ids["default"], ids["exit"], 5)
        chains = DispTreeAligner().build_chains(proc, profile)
        chains.check()
        # Hot spine: entry -> test1 -> test2 -> case2 -> exit.
        assert chains.succ[ids["entry"]] == ids["test1"]
        assert chains.succ[ids["test1"]] == ids["test2"]
        assert chains.succ[ids["test2"]] == ids["case2"]
        assert chains.succ[ids["case2"]] == ids["exit"]

    def test_ties_prefer_the_cfg_fallthrough_successor(self):
        proc = diamond_procedure(p_then=0.5)
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["entry"], ids["test"], 100)
        profile.set_weight(proc.name, ids["test"], ids["then"], 50)
        profile.set_weight(proc.name, ids["test"], ids["else"], 50)
        chains = DispTreeAligner().build_chains(proc, profile)
        # "then" is the diamond's fall-through side; the tie keeps it.
        assert chains.succ[ids["test"]] == ids["then"]

    def test_cold_blocks_still_threaded(self):
        proc = diamond_procedure()
        chains = DispTreeAligner().build_chains(proc, EdgeProfile())
        chains.check()
        assert sum(1 for b in proc.blocks if chains.succ[b] is not None) >= 4


class TestDispTreeLayout:
    def test_layout_is_valid_on_benchmark(self):
        program = generate_benchmark("compress", 0.05)
        profile = profile_program(program, seed=0)
        layout = DispTreeAligner().align(program, profile)
        for name in program.order:
            layout[name].check()

    def test_architecture_blind(self):
        assert DispTreeAligner().model is None
