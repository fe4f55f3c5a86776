"""Unit tests for alignment orchestration and the OriginalAligner."""

from collections import Counter
from math import factorial

import pytest

from repro.analysis.experiment import run_benchmark_experiment
from repro.core import (
    CostAligner,
    ExhaustiveAligner,
    GreedyAligner,
    OriginalAligner,
    TryNAligner,
    align_program,
    make_model,
)
from repro.core.registry import plan_algorithms
from repro.isa import ProcedureLayout, ProgramLayout
from repro.profiling import profile_program
from repro.sim.metrics import ALL_ARCHS
from repro.workloads import generate_benchmark


class TestOriginalAligner:
    def test_identity_layout(self, diamond_program):
        profile = profile_program(diamond_program)
        layout = OriginalAligner().align(diamond_program, profile)
        identity = ProgramLayout.identity(diamond_program)
        assert [p.bid for p in layout["main"].placements] == [
            p.bid for p in identity["main"].placements
        ]

    def test_build_chains_unsupported(self, diamond_program):
        with pytest.raises(NotImplementedError):
            OriginalAligner().build_chains(
                diamond_program.procedure("main"), profile_program(diamond_program)
            )


class TestAlignProgram:
    def test_wrapper_equivalent_to_method(self, loop_program):
        profile = profile_program(loop_program)
        aligner = GreedyAligner()
        a = align_program(loop_program, profile, aligner)
        b = aligner.align(loop_program, profile)
        assert [p.bid for p in a["main"].placements] == [
            p.bid for p in b["main"].placements
        ]

    def test_every_aligner_produces_checked_layouts(self, call_program):
        profile = profile_program(call_program)
        aligners = [
            GreedyAligner(),
            GreedyAligner(chain_order="btfnt"),
            CostAligner(make_model("fallthrough")),
            TryNAligner(make_model("likely")),
            TryNAligner.for_architecture("btfnt"),
        ]
        for aligner in aligners:
            layout = aligner.align(call_program, profile)
            for name in call_program.order:
                layout[name].check()

    def test_procedure_order_never_changes(self, call_program):
        profile = profile_program(call_program)
        layout = GreedyAligner().align(call_program, profile)
        assert [pl.procedure.name for pl in layout] == list(call_program.order)

    def test_alignment_with_empty_profile(self, call_program):
        from repro.profiling import EdgeProfile

        layout = TryNAligner(make_model("likely")).align(call_program, EdgeProfile())
        for name in call_program.order:
            layout[name].check()


@pytest.fixture
def layouts_built(monkeypatch):
    """Counts ``ProcedureLayout`` constructions per procedure name."""
    built = Counter()
    init = ProcedureLayout.__init__

    def counting(self, procedure, placements):
        built[procedure.name] += 1
        init(self, procedure, placements)

    monkeypatch.setattr(ProcedureLayout, "__init__", counting)
    return built


class TestEachLayoutBuiltOnce:
    def test_one_layout_per_procedure_per_variant(self, layouts_built):
        """The identity and each aligned variant build one layout per
        procedure; ``validate_layout`` re-checks them and builds none."""
        program = generate_benchmark("eqntott", 0.05)
        run_benchmark_experiment("eqntott", program=program, seed=0, validate=True)
        variants = sum(
            len(plan.variants)
            for plan in plan_algorithms(None, ALL_ARCHS)
            if not plan.spec.identity
        )
        assert variants == 9
        assert layouts_built == Counter({proc.name: variants + 1 for proc in program})

    def test_exhaustive_search_lays_out_each_order_once(
        self, layouts_built, diamond_program
    ):
        profile = profile_program(diamond_program)
        proc = diamond_program.procedure("main")
        layouts_built.clear()
        ExhaustiveAligner(make_model("btfnt")).align_procedure(proc, profile)
        assert layouts_built == Counter({"main": factorial(len(proc) - 1)})
