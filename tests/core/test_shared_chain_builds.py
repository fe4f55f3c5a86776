"""Shared chain builds against the unshared searches they replaced.

The variants of one registry plan that differ only after chain building
share one chain build per procedure: ``greedy-btfnt`` reorders greedy's
chains and ``try15-btfnt`` refines the LIKELY search, and every TryN
search of the plan reads one cyclic-edge set and window partition per
procedure.  The references in :mod:`tests.core.chain_reference` build
everything on their own, on the union-find chain set; every layout must
have the same :func:`~repro.isa.layout_key`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import given, settings

from repro.analysis.experiment import run_benchmark_experiment
from repro.cfg import Procedure
from repro.core import GreedyAligner, TryNAligner
from repro.core.registry import TRY_MODEL_ARCHS, get_spec
from repro.isa import ProgramLayout, layout_key
from repro.profiling import StaticProfile
from repro.sim.decisions import capture_decisions
from repro.sim.metrics import ALL_ARCHS
from repro.workloads import benchmark_names, generate_benchmark
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic
from tests.core.chain_reference import ReferenceGreedy, ReferenceTryN
from tests.properties.strategies import programs

#: The wide-cfg workload's recipe (perfbench/workloads.py, WIDE_SPEC).
WIDE_SPEC = SyntheticSpec(procedures=24, constructs_per_procedure=8, max_depth=2,
                          driver_iterations=1)


def measured(program, seed: int = 0):
    return capture_decisions(program, seed=seed).edge_profile(program)


def shared_layouts(program, profile, window: int = 15,
                   max_states: int = 100_000) -> Dict[str, ProgramLayout]:
    """Every greedy and TryN variant's layout, each algorithm one plan."""
    layouts = {}
    for name in ("greedy", "try15"):
        plan = get_spec(name).plan(ALL_ARCHS, window=window)
        for variant in plan.variants:
            if isinstance(variant.aligner, TryNAligner):
                variant.aligner.max_states = max_states
            layouts[variant.label] = variant.aligner.align(program, profile)
    return layouts


def fresh_aligner(label: str, window: int = 15, max_states: int = 100_000,
                  reference: bool = False):
    """The variant ``label``'s aligner on its own, joined to no plan."""
    greedy, tryn = (ReferenceGreedy, ReferenceTryN) if reference else (
        GreedyAligner, TryNAligner)
    if label.startswith("greedy"):
        return greedy(chain_order="btfnt" if label == "greedy-btfnt" else "weight")
    model = label.split("-", 1)[1]
    return tryn.for_architecture(model, window=window, max_states=max_states)


def assert_matches_reference(program, profile, window: int = 15,
                             max_states: int = 100_000) -> None:
    shared = shared_layouts(program, profile, window, max_states)
    labels = ["greedy", "greedy-btfnt"] + [f"try{window}-{m}" for m in TRY_MODEL_ARCHS]
    assert list(shared) == labels
    for label, layout in shared.items():
        expected = fresh_aligner(label, window, max_states, reference=True)
        assert layout_key(layout) == layout_key(expected.align(program, profile)), label


class TestLayoutsMatchTheUnsharedSearch:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite(self, name, seed):
        program = generate_benchmark(name, 0.1)
        assert_matches_reference(program, measured(program, seed))

    @pytest.mark.parametrize("program_seed", [0, 1, 2])
    def test_wide_cfg_programs(self, program_seed):
        program = generate_synthetic(WIDE_SPEC, seed=program_seed)
        assert_matches_reference(program, measured(program))

    @pytest.mark.parametrize("max_states", [5, 50, 500])
    @pytest.mark.parametrize("name", ["gcc", "espresso"])
    def test_capped_searches(self, name, max_states):
        # 5 states cannot finish one descent of a full window, so the
        # cap's cheapest-feasible fallback runs as well.
        program = generate_benchmark(name, 0.1)
        assert_matches_reference(program, measured(program), max_states=max_states)


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_random_programs_match_the_unshared_search(program):
    assert_matches_reference(program, measured(program), window=6)


class TestNoStaleSharing:
    def test_one_plan_aligns_two_programs_and_two_profiles(self):
        a = generate_benchmark("eqntott", 0.05)
        b = generate_benchmark("compress", 0.05)
        cases = [(a, measured(a, 0)), (b, measured(b, 0)), (a, measured(a, 7))]
        keys = {}
        for name in ("greedy", "try15"):
            plan = get_spec(name).plan(ALL_ARCHS)
            for variant in plan.variants:
                for index, (program, profile) in enumerate(cases):
                    got = layout_key(variant.aligner.align(program, profile))
                    fresh = fresh_aligner(variant.label).align(program, profile)
                    assert got == layout_key(fresh), (variant.label, index)
                    keys[variant.label, index] = got
            # Each shared result went to every variant that needed it and
            # was dropped then: the plan holds no procedure or profile.
            assert not plan.variants[0].aligner._share._entries
        # The two profiles of one program lay some variant out differently.
        assert any(keys[label, 0] != keys[label, 2] for label, _ in keys)

    def test_profiles_freed_between_variants_are_not_mistaken(self):
        # Each call gets a new profile object that nothing else holds, so
        # a result keyed by a bare id() could be found again by a later,
        # different profile that reuses the address.
        program = generate_benchmark("eqntott", 0.1)
        profiles = [lambda: measured(program), lambda: StaticProfile.from_program(program)]
        for name in ("greedy", "try15"):
            for index, variant in enumerate(get_spec(name).plan(ALL_ARCHS).variants):
                make = profiles[index % 2]
                got = layout_key(variant.aligner.align(program, make()))
                fresh = fresh_aligner(variant.label).align(program, make())
                assert got == layout_key(fresh), variant.label
        # Each shared pair saw both profiles, which build different chains.
        for aligner in (GreedyAligner(), TryNAligner.for_architecture("likely")):
            assert any(
                aligner.build_chains(proc, profiles[0]()).chains()
                != aligner.build_chains(proc, profiles[1]()).chains()
                for proc in program
            )


def test_each_distinct_chain_set_is_built_once_per_experiment(monkeypatch):
    """Per procedure: one LIKELY search, one greedy build, one Tarjan SCC."""
    likely, greedy, scc = Counter(), Counter(), Counter()
    tryn_build = TryNAligner.build_chains
    greedy_build = GreedyAligner.build_chains
    tarjan = Procedure._tarjan_scc

    def count_tryn(self, proc, profile):
        if self.model.name == "likely":
            likely[proc.name] += 1
        return tryn_build(self, proc, profile)

    def count_greedy(self, proc, profile):
        greedy[proc.name] += 1
        return greedy_build(self, proc, profile)

    def count_scc(self):
        scc[self.name] += 1
        return tarjan(self)

    monkeypatch.setattr(TryNAligner, "build_chains", count_tryn)
    monkeypatch.setattr(GreedyAligner, "build_chains", count_greedy)
    monkeypatch.setattr(Procedure, "_tarjan_scc", count_scc)
    program = generate_benchmark("eqntott", 0.05)
    run_benchmark_experiment("eqntott", program=program, seed=0)
    once = Counter({proc.name: 1 for proc in program})
    assert likely == once
    assert greedy == once
    assert scc == once
