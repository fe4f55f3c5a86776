"""Tests for the Hwu & Chang trace-packing baseline."""

import pytest
from hypothesis import given, settings

from repro.core import GreedyAligner, TraceAligner, TryNAligner, make_model
from repro.isa import link, link_identity
from repro.profiling import EdgeProfile, profile_program
from repro.sim.executor import execute
from repro.sim.metrics import simulate
from repro.workloads import generate_benchmark
from tests.conftest import diamond_procedure, loop_procedure
from tests.properties.strategies import programs


def _labels(proc):
    return {b.label: b.bid for b in proc}


class TestTraceGrowing:
    def test_follows_hottest_edges(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["entry"], ids["test"], 100)
        profile.set_weight(proc.name, ids["test"], ids["else"], 90)
        profile.set_weight(proc.name, ids["test"], ids["then"], 10)
        profile.set_weight(proc.name, ids["else"], ids["join"], 90)
        profile.set_weight(proc.name, ids["join"], ids["exit"], 100)
        chains = TraceAligner().build_chains(proc, profile)
        # The entry trace runs entry -> test -> else -> join -> exit.
        assert chains.chain_of(ids["entry"])[:5] == [
            ids["entry"], ids["test"], ids["else"], ids["join"], ids["exit"]
        ]

    def test_loop_trace_stops_at_cycle(self):
        proc = loop_procedure()
        ids = _labels(proc)
        profile = profile_program(
            __import__("repro").cfg.Program([proc], entry=proc.name)
        )
        chains = TraceAligner().build_chains(proc, profile)
        chains.check()

    def test_cold_blocks_form_later_traces(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        profile = EdgeProfile()
        profile.set_weight(proc.name, ids["test"], ids["else"], 90)
        layout = TraceAligner().align_procedure(proc, profile)
        order = [p.bid for p in layout.placements]
        # Cold then/endthen land after the hot else path.
        assert order.index(ids["else"]) < order.index(ids["then"])


class TestTraceQuality:
    def test_beats_original_on_taken_hot_code(self):
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program)
        model = make_model("likely")
        aligned = model.layout_cost(
            link(TraceAligner().align(program, profile)), profile
        )
        original = model.layout_cost(link_identity(program), profile)
        assert aligned < original

    def test_tryn_beats_trace_packing(self):
        """The paper's contribution must outperform its prior work."""
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program)
        model = make_model("likely")
        trace_cost = model.layout_cost(
            link(TraceAligner().align(program, profile)), profile
        )
        tryn_cost = model.layout_cost(
            link(TryNAligner(model).align(program, profile)), profile
        )
        assert tryn_cost <= trace_cost

    def test_raises_fallthrough_rate(self):
        """Hwu & Chang report ~58% fall-through after trace alignment;
        trace packing must raise the rate well above the taken-hot
        original."""
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program)
        base = simulate(link_identity(program), profile)
        aligned = simulate(link(TraceAligner().align(program, profile)), profile)
        assert aligned.percent_fallthrough > base.percent_fallthrough + 15


class TestSemantics:
    @settings(max_examples=25, deadline=None)
    @given(program=programs())
    def test_trace_packing_preserves_semantics(self, program):
        profile = profile_program(program)
        layout = TraceAligner().align(program, profile)
        layout["main"].check()

        def edges(linked):
            out = []
            execute(linked, profile_hook=lambda p, s, d: out.append((s, d)))
            return out

        assert edges(link(layout)) == edges(link_identity(program))
