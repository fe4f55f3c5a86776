"""Step binding reads the linked image, against the binding it replaced.

:func:`repro.sim.replay.compile_steps` reads each template's own blocks
from ``LinkedProgram.blocks`` and the CFG, and checks only the kind and
behaviour of the others.  The reference in :mod:`tests.sim.
replay_reference` binds through :func:`repro.sim.executor._compile_nodes`,
execute's record of every block.  Every template must bind to an equal
step — events, entered block and edge — and a block that cannot run must
raise the same :class:`ExecutionError` as execute and decision capture.
"""

from __future__ import annotations

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfg import TerminatorKind
from repro.isa import link_identity
from repro.oracle.oracle import _Image
from repro.sim import executor
from repro.sim.decisions import capture_decisions
from repro.sim.executor import ExecutionError, execute
from repro.sim.metrics import default_architectures
from repro.sim.replay import compile_steps, run_architectures
from repro.transforms import meld_program, unroll_program_self_loops
from repro.workloads import benchmark_names, generate_benchmark
from tests.properties.strategies import programs
from tests.sim.replay_reference import (
    images,
    reference_compile_steps,
    step_fields,
    suite_images,
)


def assert_binds_like_reference(linked, trace):
    got = [step_fields(step) for step in compile_steps(linked, trace)]
    want = [step_fields(step) for step in reference_compile_steps(linked, trace)]
    assert len(got) == len(trace.templates)
    assert got == want


@pytest.mark.parametrize("name", benchmark_names())
def test_every_registry_layout_of_the_suite(name):
    trace, linked_images = suite_images(name, 0)
    for linked in linked_images:
        assert_binds_like_reference(linked, trace)


def test_melded_program():
    program, report = meld_program(generate_benchmark("eqntott", 0.05))
    assert report.applied
    trace = capture_decisions(program, seed=0)
    for linked in images(program, trace):
        assert_binds_like_reference(linked, trace)


def test_unrolled_program():
    original = generate_benchmark("alvinn", 0.05)
    program = unroll_program_self_loops(original)
    assert sum(map(len, program)) > sum(map(len, original))
    trace = capture_decisions(program, seed=0)
    for linked in images(program, trace):
        assert_binds_like_reference(linked, trace)


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_programs(program, seed):
    trace = capture_decisions(program, seed=seed)
    for linked in images(program, trace):
        assert_binds_like_reference(linked, trace)


def test_only_execute_builds_block_records(monkeypatch):
    """Replay and the oracle bind without execute's per-block records."""
    built = []
    real = executor._compile_nodes

    def counting(linked):
        built.append(linked)
        return real(linked)

    monkeypatch.setattr(executor, "_compile_nodes", counting)
    program = generate_benchmark("li", 0.02)
    trace = capture_decisions(program, seed=0)
    linked = link_identity(program)
    sims = default_architectures(linked, trace.edge_profile(program))
    run_architectures(linked, trace, sims)
    _Image(linked, trace)
    assert built == []
    execute(linked, seed=0)
    assert built == [linked]


def _first_branching_block(program, kind):
    return next(
        (proc, block)
        for proc in program
        for block in proc
        if block.kind is kind and len(proc.out_edges(block.bid)) > 1
    )


@pytest.mark.parametrize(
    "name, kind, message",
    [
        ("eqntott", TerminatorKind.COND, "{proc}: conditional block {bid} needs a behaviour"),
        (
            "gcc",
            TerminatorKind.INDIRECT,
            "{proc}: indirect block {bid} with multiple targets needs a behaviour",
        ),
    ],
)
def test_a_behaviour_lost_after_capture_is_an_execution_error(name, kind, message):
    program = generate_benchmark(name, 0.02)
    trace = capture_decisions(program, seed=0)
    proc, block = _first_branching_block(program, kind)
    block.behavior = None
    text = f"^{re.escape(message.format(proc=proc.name, bid=block.bid))}$"
    linked = link_identity(program)
    sims = default_architectures(linked, trace.edge_profile(program))
    for bind in (
        reference_compile_steps,
        compile_steps,
        lambda linked, trace: run_architectures(linked, trace, sims),
        _Image,
        lambda linked, trace: execute(linked, seed=0),
        lambda linked, trace: capture_decisions(linked.program, seed=0),
    ):
        with pytest.raises(ExecutionError, match=text):
            bind(linked, trace)
