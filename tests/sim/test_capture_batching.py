"""Decision capture a decision at a time equals the step-at-a-time walk.

``capture_decisions`` emits fixed-successor tails and decision-free loop
activations in bulk, and ``DecisionTrace.ras_stats`` takes its tallies
from the template counts when the executed call graph allows it.  The
references in :mod:`tests.sim.capture_reference` are the walks they
replaced; every trace, behaviour state and tally must equal theirs.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfg import CallSite, ProgramBuilder
from repro.sim import decisions as dec
from repro.sim.behaviors import CondBehavior, Loop
from repro.sim.decisions import capture_decisions, encode_trace
from repro.sim.executor import ExecutionError
from repro.sim.predictors.ras import ReturnStack
from repro.transforms import meld_program, unroll_program_self_loops
from repro.workloads import (
    benchmark_names,
    figure1_program,
    figure2_program,
    figure3_program,
    generate_benchmark,
)
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic
from tests.properties.strategies import programs
from tests.sim.capture_reference import reference_capture_decisions, reference_ras_stats

#: The wide-cfg workload's recipe (perfbench/workloads.py, WIDE_SPEC).
WIDE_SPEC = SyntheticSpec(procedures=24, constructs_per_procedure=8, max_depth=2,
                          driver_iterations=1)

#: Suite programs whose longest executed call chain is recursive.
RECURSIVE = ("li",)


def behaviour_state(program):
    """Every behaviour's and chooser's state, RNG state included."""

    def state(obj):
        out = {}
        for key, value in vars(obj).items():
            if isinstance(value, random.Random):
                value = value.getstate()
            elif isinstance(value, CondBehavior):
                value = state(value)
            out[key] = value
        return (type(obj).__name__, out)

    return [
        (proc.name, block.bid, [
            state(obj)
            for obj in [block.behavior] + [call.chooser for call in block.calls]
            if obj is not None
        ])
        for proc in program
        for block in proc
    ]


def assert_captures_like_reference(program, seed=0):
    want = reference_capture_decisions(program, seed=seed, workload="w", scale=1.0)
    want_state = behaviour_state(program)
    got = capture_decisions(program, seed=seed, workload="w", scale=1.0)
    assert got.templates == want.templates
    assert got.counts == want.counts
    assert [list(c) for c in got.iter_chunks()] == [list(c) for c in want.iter_chunks()]
    assert encode_trace(got) == encode_trace(want)
    assert behaviour_state(program) == want_state
    for depth in (32, 2):
        assert got.ras_stats(depth) == reference_ras_stats(want, depth)


class TestCaptureEqualsReference:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("scale", [0.05, 0.1])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite(self, name, scale, seed):
        assert_captures_like_reference(generate_benchmark(name, scale), seed)

    @pytest.mark.parametrize("program_seed", range(4))
    def test_wide_cfg_recipe(self, program_seed):
        assert_captures_like_reference(generate_synthetic(WIDE_SPEC, seed=program_seed))

    @pytest.mark.parametrize("build", [figure1_program, figure2_program, figure3_program])
    def test_paper_figures(self, build):
        assert_captures_like_reference(build())

    def test_unrolled_loops(self):
        """Unrolled copies decide through ``Inverted``: never batched."""
        program = unroll_program_self_loops(generate_benchmark("alvinn", 0.05))
        assert_captures_like_reference(program)

    def test_melded_program(self):
        program, report = meld_program(generate_benchmark("eqntott", 0.05))
        assert report.applied
        assert_captures_like_reference(program)

    @pytest.mark.parametrize("name", [
        "swm256", "su2cor", "spice", "alvinn", "hydro2d", "tomcatv", "nasa7",
    ])
    def test_loop_heavy_programs_at_full_scale(self, name):
        assert_captures_like_reference(generate_benchmark(name, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_random_programs(self, program, seed):
        assert_captures_like_reference(program, seed)

    def test_chunks_split_after_a_long_activation(self):
        """One activation longer than a chunk still splits every CHUNK_STEPS."""
        builder = ProgramBuilder()
        main = builder.procedure("main")
        main.fall("head", 2)
        main.cond("spin", 3, taken="spin", behavior=Loop(3 * dec.CHUNK_STEPS + 5))
        main.ret("out", 1)
        program = builder.build()
        trace = capture_decisions(program)
        assert [len(c) for c in trace.iter_chunks()] == [dec.CHUNK_STEPS] * 3 + [7]
        assert_captures_like_reference(program)


class TestLoopBatching:
    def count_choose(self, monkeypatch, name):
        calls = []
        choose = Loop.choose

        def counting(self):
            calls.append(self)
            return choose(self)

        monkeypatch.setattr(Loop, "choose", counting)
        capture_decisions(generate_benchmark(name, 0.1))
        return len(calls)

    def test_decision_free_loops_skip_choose(self, monkeypatch):
        # The per-step walk asks swm256's loops 4,628 times.
        assert self.count_choose(monkeypatch, "swm256") <= 20

    def test_loops_that_decide_keep_choose(self, monkeypatch):
        # No eqntott loop is decision-free, so every visit still asks.
        assert self.count_choose(monkeypatch, "eqntott") == 1997

    def test_a_loop_that_calls_asks_at_every_visit(self, monkeypatch):
        calls = []
        choose = Loop.choose

        def counting(self):
            calls.append(self)
            return choose(self)

        monkeypatch.setattr(Loop, "choose", counting)
        builder = ProgramBuilder()
        main = builder.procedure("main")
        main.fall("head", 2)
        main.cond("loop", 3, taken="loop", behavior=Loop(50),
                  calls=[CallSite(0, "leaf")])
        main.ret("out", 1)
        builder.procedure("leaf").ret("done", 1)
        program = builder.build()
        capture_decisions(program)
        assert len(calls) == 50
        assert_captures_like_reference(program)

    def test_a_fixed_cycle_with_no_exit_is_an_error(self):
        """The walk refuses to enter a loop no decision leaves."""
        builder = ProgramBuilder()
        main = builder.procedure("main")
        main.fall("head", 2)
        main.uncond("spin", 2, target="spin")
        main.ret("out", 1)
        with pytest.raises(ExecutionError, match="no exit"):
            capture_decisions(builder.build())


class TestFinishActivation:
    @settings(max_examples=200, deadline=None)
    @given(
        trips=st.one_of(
            st.integers(min_value=1, max_value=9),
            st.tuples(st.integers(1, 5), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
        ),
        continue_taken=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        reset=st.booleans(),
        warmup=st.integers(min_value=0, max_value=12),
    )
    def test_equals_choosing_until_the_exit(self, trips, continue_taken, seed, reset, warmup):
        stepped, batched = Loop(trips, continue_taken), Loop(trips, continue_taken)
        if reset:  # else no activation is drawn yet
            stepped.reset(seed)
            batched.reset(seed)
        for _ in range(warmup):  # land mid-activation, or at a fresh one
            assert stepped.choose() == batched.choose()
        continues = 0
        while stepped.choose() == continue_taken:
            continues += 1
        assert batched.finish_activation() == continues
        assert batched._remaining == stepped._remaining
        assert batched._rng.getstate() == stepped._rng.getstate()
        for _ in range(20):  # the next activations agree too
            assert batched.choose() == stepped.choose()


class TestRasStats:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_equals_the_stack_walk(self, name):
        trace = capture_decisions(generate_benchmark(name, 0.05))
        for depth in (1, 2, 3, 4, 32):
            assert trace.ras_stats(depth) == reference_ras_stats(trace, depth), depth

    def pushes(self, monkeypatch):
        calls = []
        push = ReturnStack.push

        def counting(self, value):
            calls.append(value)
            push(self, value)

        monkeypatch.setattr(ReturnStack, "push", counting)
        return calls

    def test_recursion_takes_the_walk(self, monkeypatch):
        calls = self.pushes(monkeypatch)
        trace = capture_decisions(generate_benchmark("li", 0.05))
        assert trace._longest_call_chain() is None
        pushes, _, _ = trace.ras_stats(32)
        assert pushes and len(calls) == pushes

    def test_a_chain_deeper_than_the_stack_takes_the_walk(self, monkeypatch):
        calls = self.pushes(monkeypatch)
        trace = capture_decisions(generate_benchmark("idl", 0.05))
        assert trace._longest_call_chain() == 4
        trace.ras_stats(4)
        assert not calls
        pushes, _, _ = trace.ras_stats(3)
        assert pushes and len(calls) == pushes

    def test_acyclic_programs_never_walk(self, monkeypatch):
        calls = self.pushes(monkeypatch)
        names = [name for name in benchmark_names() if name not in RECURSIVE]
        assert len(names) == 23
        for name in names:
            trace = capture_decisions(generate_benchmark(name, 0.05))
            assert trace.ras_stats(32)[0] > 0, name
        assert not calls
