"""The replay engine's exactness contract: replay == execute, bit for bit."""

import importlib
import random
from array import array

import pytest

from repro.core import GreedyAligner, TryNAligner
from repro.isa import link, link_identity
from repro.sim.decisions import T_BRANCH, DecisionTrace, capture_decisions
from repro.sim.metrics import ALL_ARCHS, default_architectures, simulate
from repro.sim.predictors import (
    BTBSim,
    DirectMappedPHT,
    FallthroughSim,
    LocalHistoryPHT,
    SaturatingCounter,
    TournamentPHT,
)
from repro.sim.replay import ReplayMismatchError, replay
from repro.sim import executor as ex
from repro.sim import trace as tr
from repro.workloads import SUITE, generate_benchmark

#: Suite spread for the differential check: every category, every step
#: kind (calls, indirect jumps, deep loops) represented.
DIFF_BENCHMARKS = ("eqntott", "compress", "alvinn", "cfront")


def _layouts(program, profile, window=15):
    layouts = {"orig": None}
    layouts["greedy"] = GreedyAligner(chain_order="weight").align(program, profile)
    layouts["greedy-btfnt"] = GreedyAligner(chain_order="btfnt").align(program, profile)
    for model in ("fallthrough", "btfnt", "likely", "pht", "btb"):
        aligner = TryNAligner.for_architecture(model, window=window)
        layouts[f"try15-{model}"] = aligner.align(program, profile)
    return layouts


@pytest.mark.parametrize("name", DIFF_BENCHMARKS)
def test_replay_bit_identical_across_layouts_and_archs(name):
    """The acceptance gate: every layout, all 7 architectures, ``==``."""
    program = generate_benchmark(name, 0.1)
    trace = capture_decisions(program, seed=0, workload=name, scale=0.1)
    profile = trace.edge_profile(program)
    for label, layout in _layouts(program, profile).items():
        linked = link_identity(program) if layout is None else link(layout)
        replayed = simulate(linked, profile, seed=0, trace=trace, engine="replay")
        executed = simulate(linked, profile, seed=0, engine="execute")
        assert replayed == executed, f"{name}/{label} diverged"
        assert set(replayed.arch) == set(ALL_ARCHS)


def test_replay_event_stream_identical(diamond_program):
    """Raw replay is a drop-in for execute: events, hooks, result."""
    trace = capture_decisions(diamond_program, seed=0)
    linked = link_identity(diamond_program)

    rec_r, rec_x = tr.EventRecorder(), tr.EventRecorder()
    edges_r, edges_x = [], []
    blocks_r, blocks_x = [], []
    res_r = replay(
        linked, trace, listeners=(rec_r,),
        profile_hook=lambda *e: edges_r.append(e),
        block_hook=lambda *b: blocks_r.append(b),
    )
    res_x = ex.execute(
        linked, listeners=(rec_x,),
        profile_hook=lambda *e: edges_x.append(e),
        block_hook=lambda *b: blocks_x.append(b),
        seed=0,
    )
    assert rec_r.events == rec_x.events
    assert edges_r == edges_x
    assert blocks_r == blocks_x
    assert (res_r.instructions, res_r.events, res_r.blocks) == (
        res_x.instructions, res_x.events, res_x.blocks
    )


def test_pht_subclasses_take_generic_path_and_still_match(loop_program, generic_tier):
    """Tier dispatch is by exact type: subclasses must not inherit the
    slice tier's closed forms (their overridden predict/update would be
    skipped) — and the generic tier must still match execute."""
    from repro.profiling import profile_program

    trace = capture_decisions(loop_program, seed=0)
    linked = link_identity(loop_program)
    profile = profile_program(loop_program, seed=0)
    for make in (TournamentPHT, LocalHistoryPHT):
        sim = make()
        replayed = simulate(linked, profile, archs=[sim], seed=0, trace=trace, engine="replay")
        assert generic_tier[-1] is sim
        executed = simulate(linked, profile, archs=[make()], seed=0, engine="execute")
        assert replayed == executed


def test_default_architectures_match(call_program):
    from repro.profiling import profile_program

    trace = capture_decisions(call_program, seed=0)
    linked = link_identity(call_program)
    profile = profile_program(call_program, seed=0)
    replayed = simulate(
        linked, profile,
        archs=default_architectures(linked, profile), seed=0,
        trace=trace, engine="replay",
    )
    executed = simulate(
        linked, profile,
        archs=default_architectures(linked, profile), seed=0, engine="execute",
    )
    assert replayed == executed


class TestSimulateDedup:
    """Regression: duplicate sim instances in ``archs`` double-counted."""

    def test_duplicates_dropped_by_identity(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        sim = DirectMappedPHT()
        report = simulate(linked, profile, archs=[sim, sim], seed=0, engine="execute")
        fresh = simulate(
            linked, profile, archs=[DirectMappedPHT()], seed=0, engine="execute"
        )
        assert report.arch[sim.name] == fresh.arch[DirectMappedPHT().name]

    def test_distinct_instances_kept(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        a, b = BTBSim(64, 2), BTBSim(256, 4)
        report = simulate(linked, profile, archs=[a, b], seed=0)
        assert set(report.arch) == {a.name, b.name}

    def test_dedup_applies_to_replay_engine_too(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        sim = FallthroughSim()
        report = simulate(
            linked, profile, archs=[sim, sim], seed=0, trace=trace, engine="replay"
        )
        fresh = simulate(
            linked, profile, archs=[FallthroughSim()], seed=0, engine="execute"
        )
        assert report.arch[sim.name] == fresh.arch[sim.name]


class TestReplayCheck:
    def test_passes_when_engines_agree(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        simulate(linked, profile, seed=0, trace=trace, replay_check=True)

    def test_env_var_enables_it(self, loop_program, monkeypatch):
        from repro.profiling import profile_program
        from repro.sim import metrics

        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        assert metrics.replay_check_enabled()
        profile = profile_program(loop_program, seed=0)
        trace = capture_decisions(loop_program, seed=0)
        simulate(link_identity(loop_program), profile, seed=0, trace=trace)

    def test_raises_on_wrong_trace(self, loop_program, diamond_program):
        """A trace from the wrong program must not silently pass."""
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        wrong = capture_decisions(diamond_program, seed=0)
        with pytest.raises(Exception):
            simulate(linked, profile, seed=0, trace=wrong, replay_check=True)


class TestStreamModelConsistency:
    def test_condmix_kind_matches_trace(self):
        # profiling.condmix hardcodes the COND kind code (an import would
        # cycle through sim.executor); keep the constants locked together.
        from repro.profiling.condmix import COND_KIND

        assert COND_KIND == tr.COND


# -- the slice tier's closed forms and dispatch ----------------------------

replay_module = importlib.import_module("repro.sim.replay")


def _random_runs(rng, count=40):
    """Alternating runs of templates 0 and 1 as ``(tid, length)`` pairs."""
    tid = rng.randrange(2)
    runs = []
    for _ in range(rng.randrange(1, count)):
        runs.append((tid, rng.randrange(1, 8)))
        tid ^= 1
    return runs


@pytest.mark.parametrize("initial", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", range(25))
def test_counter_closed_form_matches_per_event_loop(initial, seed):
    rng = random.Random(seed)
    runs = _random_runs(rng)
    taken_tid = rng.randrange(2)
    counter = SaturatingCounter(bits=2, value=initial)
    mis_t = mis_n = 0
    for tid, length in runs:
        taken = tid == taken_tid
        for _ in range(length):
            if counter.predict_taken != taken:
                if taken:
                    mis_t += 1
                else:
                    mis_n += 1
            counter.update(taken)
    codes = [tid << 2 | min(length, 3) for tid, length in runs]
    assert replay_module._counter_over_runs(codes, (taken_tid,), initial) == (
        counter.value, mis_t, mis_n
    )


@pytest.mark.parametrize("seed", range(40))
def test_btb_entry_closed_form_matches_per_event_loop(seed):
    """One conditional site in a BTB set that never evicts."""
    rng = random.Random(seed)
    runs = _random_runs(rng)
    taken_tid = rng.randrange(2)
    site, target = 0x400, 0x800
    stream = [tid for tid, length in runs for _ in range(length)]
    trace = DecisionTrace(
        [(T_BRANCH, "main", 0, 1), (T_BRANCH, "main", 0, 2)],
        [stream.count(0), stream.count(1)],
        [array("q", stream)],
        len(stream),
    )
    slices = replay_module._Slices(trace, b"\x01\x01")
    target_of = {taken_tid: target, taken_tid ^ 1: site + 4}
    entry = replay_module._Site(tr.COND, 0)
    for tid in slices.tids_of[0]:
        entry.tids.append(tid)
        entry.targets.append(target_of[tid])
        if tid == taken_tid:
            entry.taken.append(tid)

    sim = BTBSim(64, 2)
    for tid in stream:
        sim.on_event((tr.COND, site, target_of[tid], tid == taken_tid))
    line = sim.btb._set_for(site).get(site)

    events, misses, misfetches, mispredicts, correct, closed_line = (
        replay_module._btb_site(slices, entry, trace.counts)
    )
    assert (events, misses, misfetches) == (len(stream), sim.btb.misses, 0)
    assert events - misses == sim.btb.hits
    assert (mispredicts, correct) == (sim.counts.mispredicts, sim.counts.cond_correct)
    assert closed_line == (None if line is None else (line.target, line.counter))


@pytest.fixture
def generic_tier(monkeypatch):
    """Records every sim the replayer hands to the per-event generic tier."""
    served = []

    class Recording(replay_module._GenericFeed):
        def __init__(self, listener):
            served.append(listener)
            super().__init__(listener)

    monkeypatch.setattr(replay_module, "_GenericFeed", Recording)
    return served


def _suite_replay(archs=None, layout="greedy"):
    program = generate_benchmark("eqntott", 0.1)
    trace = capture_decisions(program, seed=0)
    profile = trace.edge_profile(program)
    linked = link(_layouts(program, profile)[layout])
    simulate(linked, profile, archs=archs, seed=0, trace=trace, engine="replay")
    return trace


def test_default_architectures_take_the_slice_tier(generic_tier):
    """Guard: an edit that silently drops the paper's architectures to the
    slow per-event tier fails here, even though results stay identical."""
    trace = _suite_replay()
    assert generic_tier == []
    assert trace._slices is not None


def test_overflowing_btb_sets_replay_per_set_not_generic(generic_tier, monkeypatch):
    """Only the over-subscribed sets' events are replayed one by one."""
    fed = []
    feed = replay_module._BTBFeed.feed

    def recording_feed(self, chunk):
        fed.extend(chunk)
        feed(self, chunk)

    monkeypatch.setattr(replay_module._BTBFeed, "feed", recording_feed)
    sim = BTBSim(16, 2)
    _suite_replay(archs=[sim])
    assert generic_tier == []
    assert 0 < len(fed) < (sim.btb.hits + sim.btb.misses) // 2


def test_shared_pht_counters_replay_per_counter_not_generic(generic_tier):
    sim = DirectMappedPHT(entries=4)
    _suite_replay(archs=[sim])
    assert generic_tier == []
    assert sim.table.counters != [1, 1, 1, 1]
