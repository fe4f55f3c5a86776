"""Unit tests for BEP aggregation and relative CPI."""

import pytest

from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.sim.metrics import (
    ALL_ARCHS,
    default_architectures,
    relative_cpi,
    simulate,
)
from repro.core import GreedyAligner


class TestRelativeCPI:
    def test_formula(self):
        # 1,000 instructions + 375 penalty cycles = 1.375 relative CPI.
        assert relative_cpi(1000, 375, 1000) == 1.375

    def test_aligned_program_with_fewer_instructions(self):
        # The paper's example: 978 instructions + 347 cycles over an
        # original 1,000 instructions.
        assert relative_cpi(978, 347, 1000) == 1.325

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            relative_cpi(10, 5, 0)


class TestSimulate:
    def test_all_architectures_present(self, loop_program):
        profile = profile_program(loop_program)
        report = simulate(link_identity(loop_program), profile)
        assert set(report.arch) == set(ALL_ARCHS)

    def test_report_counts_consistent(self, loop_program):
        profile = profile_program(loop_program)
        report = simulate(link_identity(loop_program), profile)
        assert report.instructions > 0
        for result in report.arch.values():
            assert result.bep == result.misfetches + 4 * result.mispredicts
            assert 0 <= result.cond_correct <= result.cond_executed

    def test_identity_relative_cpi_at_least_one(self, diamond_program):
        profile = profile_program(diamond_program)
        report = simulate(link_identity(diamond_program), profile)
        for arch in ALL_ARCHS:
            assert report.relative_cpi(arch, report.instructions) >= 1.0

    def test_percent_fallthrough(self, loop_program):
        profile = profile_program(loop_program)
        report = simulate(link_identity(loop_program), profile)
        # Nine taken back edges, one fall-through exit.
        assert report.percent_fallthrough == pytest.approx(10.0)

    def test_fallthrough_worst_static_arch_on_loop(self, loop_program):
        profile = profile_program(loop_program)
        report = simulate(link_identity(loop_program), profile)
        base = report.instructions
        assert report.relative_cpi("fallthrough", base) >= report.relative_cpi(
            "btfnt", base
        )

    def test_custom_arch_list(self, loop_program):
        profile = profile_program(loop_program)
        linked = link_identity(loop_program)
        sims = default_architectures(linked, profile)[:2]
        report = simulate(linked, profile, archs=sims)
        assert set(report.arch) == {"fallthrough", "btfnt"}

    def test_deterministic_across_runs(self, diamond_program):
        profile = profile_program(diamond_program)
        linked = link_identity(diamond_program)
        a = simulate(linked, profile, seed=5)
        b = simulate(linked, profile, seed=5)
        assert a.arch["pht-direct"].bep == b.arch["pht-direct"].bep

    def test_aligned_run_executes_same_conditionals(self, diamond_program):
        profile = profile_program(diamond_program)
        base = simulate(link_identity(diamond_program), profile)
        layout = GreedyAligner().align(diamond_program, profile)
        aligned = simulate(link(layout), profile)
        # Alignment may flip senses but never changes which conditionals
        # execute.
        assert aligned.cond_executed == base.cond_executed
