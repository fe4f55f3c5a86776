"""gshare's run-at-a-time kernel against the step-at-a-time loop it replaced.

:func:`repro.sim.replay._score_gshare` scores a run's first step on its
own, caps the rest of the run at ``history_bits + 3`` steps and indexes
the table with no per-step mask, shifting a history wider than the index
through the outcomes afterwards.  The reference in
:mod:`tests.sim.replay_reference` walks every step up to the same cap.
Both must leave equal counters, history and tallies, on a fresh sim and
on one that has already scored a run.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import GreedyAligner, TryNAligner
from repro.isa import link, link_identity
from repro.sim.decisions import capture_decisions
from repro.sim.predictors import CorrelationPHT
from repro.sim.replay import _Layout, _score_gshare
from repro.workloads import benchmark_names
from tests.properties.strategies import programs
from tests.sim.replay_reference import reference_score_gshare, suite_images

#: (entries, history bits): the paper's 4096/12; 16/4, whose short
#: history cuts long runs; 64/2; and 16/6, whose history is wider than
#: the table index.
GEOMETRIES = ((4096, 12), (16, 4), (64, 2), (16, 6))


def _state(sim):
    ras = sim.ras
    return (
        list(sim.table.counters), sim.history, sim.counts,
        (ras.pushes, ras.pops, ras.correct, ras._live),
    )


def assert_kernels_agree(images, trace):
    """Both kernels on every image and geometry: once on a fresh sim,
    then again on that sim, so history and counters are live on entry.
    Returns how many second runs started from a nonzero history."""
    warm_histories = 0
    for linked in images:
        layout = _Layout(linked, trace)
        slices = layout.slices()
        assert slices is not None
        for entries, bits in GEOMETRIES:
            reference = CorrelationPHT(entries=entries, history_bits=bits)
            kernel = CorrelationPHT(entries=entries, history_bits=bits)
            for run in ("fresh", "warm"):
                if run == "warm":
                    warm_histories += kernel.history != 0
                reference_score_gshare(reference, layout, slices)
                _score_gshare(kernel, layout, slices)
                assert _state(kernel) == _state(reference), (entries, bits, run)
    return warm_histories


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", benchmark_names())
def test_every_registry_layout_of_the_suite(name, seed):
    trace, images = suite_images(name, seed)
    assert assert_kernels_agree(images, trace) > 0


def test_the_suite_reaches_cut_runs_and_wide_histories():
    """Keeps the cases above honest: some runs are longer than the 16/4
    cap, and 16/6 keeps history bits above its 4-bit index."""
    trace, images = suite_images("swm256", 0)
    layout = _Layout(images[0], trace)
    slices = layout.slices()
    assert slices is not None
    assert max(slices.cond_lengths) > 4 + 3
    sim = CorrelationPHT(entries=16, history_bits=6)
    _score_gshare(sim, layout, slices)
    assert sim.history > sim.table.mask


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_programs(program, seed):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    images = [
        link_identity(program),
        link(GreedyAligner(chain_order="weight").align(program, profile)),
        link(TryNAligner.for_architecture("pht", window=7).align(program, profile)),
    ]
    assert_kernels_agree(images, trace)
