"""Property: replay == execute on arbitrary random programs and layouts."""

import copy

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import GreedyAligner, TryNAligner
from repro.isa import link, link_identity
from repro.sim.decisions import capture_decisions, decode_trace, encode_trace
from repro.sim.executor import execute
from repro.sim.metrics import simulate
from repro.sim.predictors import BTBSim, CorrelationPHT, DirectMappedPHT
from repro.workloads import SUITE, generate_benchmark

from .strategies import programs


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_replay_matches_execute_on_identity(program, seed):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    linked = link_identity(program)
    replayed = simulate(linked, profile, seed=seed, trace=trace, engine="replay")
    executed = simulate(linked, profile, seed=seed, engine="execute")
    assert replayed == executed


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    seed=st.integers(min_value=0, max_value=2**16),
    model=st.sampled_from(("fallthrough", "btfnt", "likely", "pht", "btb")),
)
def test_replay_matches_execute_on_aligned_layouts(program, seed, model):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    for aligner in (
        GreedyAligner(chain_order="weight"),
        TryNAligner.for_architecture(model, window=7),
    ):
        linked = link(aligner.align(program, profile))
        replayed = simulate(linked, profile, seed=seed, trace=trace, engine="replay")
        executed = simulate(linked, profile, seed=seed, engine="execute")
        assert replayed == executed


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_persisted_trace_replays_identically(program, seed):
    """Round-tripping through the storage encoding loses nothing."""
    trace = capture_decisions(program, seed=seed)
    revived = decode_trace(encode_trace(trace))
    profile = trace.edge_profile(program)
    linked = link_identity(program)
    assert simulate(linked, profile, trace=revived, engine="replay") == simulate(
        linked, profile, trace=trace, engine="replay"
    )


# -- every tier and every fallback, down to the simulators' final state ----


def _probes():
    """Sims that between them reach every replay tier and fallback."""
    return [
        DirectMappedPHT(),  # closed-form counters
        DirectMappedPHT(entries=4),  # aliased counters: per-counter replay
        CorrelationPHT(),
        CorrelationPHT(entries=16, history_bits=4),  # short history: runs get cut
        CorrelationPHT(entries=16, history_bits=6),  # history wider than the index
        BTBSim(64, 2),
        BTBSim(256, 4),
        BTBSim(16, 2),  # some sets over-subscribed: per-set replay
        BTBSim(4, 2),  # most traffic over-subscribed
        BTBSim(2, 1),
    ]


def _state(sim):
    """A sim's tallies plus every piece of state a later run can observe.

    Return-stack slots are left out: a stack holding entries sends a sim
    to the faithful tier, and an empty stack's slots are never read.
    BTB lines are compared in LRU order, not by stamp value.
    """
    ras = sim.ras
    state = {"counts": sim.counts, "ras": (ras.pushes, ras.pops, ras.correct, ras._live)}
    if hasattr(sim, "table"):
        state["counters"] = list(sim.table.counters)
    if hasattr(sim, "history"):
        state["history"] = sim.history
    if hasattr(sim, "btb"):
        btb = sim.btb
        state["btb"] = (btb.hits, btb.misses, btb._clock)
        state["lines"] = [
            [(site, e.target, e.counter) for site, e in sorted(bucket.items(), key=lambda kv: kv[1].stamp)]
            for bucket in btb._sets
        ]
    return state


def _replay_and_execute(program, seed, linked, trace, replayed, executed):
    profile = trace.edge_profile(program)
    a = simulate(linked, profile, archs=replayed, seed=seed, trace=trace, engine="replay")
    b = simulate(linked, profile, archs=executed, seed=seed, engine="execute")
    assert (a.instructions, a.events, a.cond_taken, a.cond_executed) == (
        b.instructions, b.events, b.cond_taken, b.cond_executed
    )
    for r, x in zip(replayed, executed):
        assert _state(r) == _state(x), f"{type(r).__name__} {r.name}"


def _layouts(program, trace):
    profile = trace.edge_profile(program)
    yield link_identity(program)
    yield link(GreedyAligner(chain_order="weight").align(program, profile))
    yield link(TryNAligner.for_architecture("btb", window=7).align(program, profile))


@settings(max_examples=30, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_every_tier_leaves_execute_state(program, seed):
    trace = capture_decisions(program, seed=seed)
    for linked in _layouts(program, trace):
        _replay_and_execute(program, seed, linked, trace, _probes(), _probes())


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(SUITE)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_tier_leaves_execute_state_with_calls(name, seed):
    """Suite programs add calls, indirect calls and jumps, and returns."""
    program = generate_benchmark(name, 0.02)
    trace = capture_decisions(program, seed=seed)
    for linked in _layouts(program, trace):
        _replay_and_execute(program, seed, linked, trace, _probes(), _probes())


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    seed=st.integers(min_value=0, max_value=2**16),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_prewarmed_sims_match_execute(program, seed, cap):
    """Sims warmed by an earlier run — whole, or cut by ``max_events`` so
    the return stack may still hold entries — replay exactly."""
    trace = capture_decisions(program, seed=seed)
    layouts = list(_layouts(program, trace))
    warm = _probes()
    execute(layouts[0], listeners=warm, seed=seed, max_events=cap)
    _replay_and_execute(
        program, seed, layouts[-1], trace, copy.deepcopy(warm), copy.deepcopy(warm)
    )


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(SUITE)),
    seed=st.integers(min_value=0, max_value=2**16),
    cap=st.integers(min_value=1, max_value=400),
)
def test_sims_warmed_mid_call_match_execute(name, seed, cap):
    """A run cut inside a call leaves return-stack entries behind, which
    the trace's return statistics cannot account for."""
    program = generate_benchmark(name, 0.02)
    trace = capture_decisions(program, seed=seed)
    layouts = list(_layouts(program, trace))
    warm = _probes()
    execute(layouts[0], listeners=warm, seed=seed, max_events=cap)
    _replay_and_execute(
        program, seed, layouts[-1], trace, copy.deepcopy(warm), copy.deepcopy(warm)
    )


def test_a_cut_run_can_leave_return_stack_entries():
    """Keeps the property above honest: some cut does leave entries."""
    program = generate_benchmark("li", 0.02)
    linked = link_identity(program)
    lives = set()
    for cap in range(1, 400, 7):
        sim = DirectMappedPHT()
        execute(linked, listeners=[sim], seed=0, max_events=cap)
        lives.add(sim.ras._live)
    assert max(lives) > 0


@settings(max_examples=25, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_replayed_sims_resume_like_executed_ones(program, seed):
    """A sim scored by the cheaper tiers carries on exactly as one that
    saw every event: a second run over it still matches execute."""
    trace = capture_decisions(program, seed=seed)
    replayed, executed = _probes(), _probes()
    for linked in _layouts(program, trace):
        _replay_and_execute(program, seed, linked, trace, replayed, executed)
