"""Tests for the per-step capture listener the oracle reference keeps.

``capture_trace`` records every block, conditional outcome and edge of
one run; the per-step reference oracle in ``test_oracle_reference``
compares two such captures.
"""

import pytest

from repro.isa.encoder import link, link_identity
from repro.profiling import profile_program
from repro.workloads import generate_benchmark
from tests.oracle.test_oracle_reference import capture_trace

SCALE = 0.02


@pytest.fixture(scope="module")
def program():
    return generate_benchmark("compress", SCALE)


class TestCaptureTrace:
    def test_blocks_and_edges_recorded(self, program):
        capture = capture_trace(link_identity(program), seed=0)
        assert len(capture.blocks) > 0
        assert capture.instructions > 0
        assert capture.events > 0
        # Every recorded block is a (procedure, block-id) pair of the program.
        names = {proc.name for proc in program}
        for proc_name, bid in capture.blocks[:50]:
            assert proc_name in names
            assert bid in program.procedure(proc_name).blocks

    def test_deterministic_for_same_seed(self, program):
        a = capture_trace(link_identity(program), seed=3)
        b = capture_trace(link_identity(program), seed=3)
        assert a.blocks == b.blocks
        assert a.cond_outcomes == b.cond_outcomes
        assert a.edge_counts == b.edge_counts
        assert a.edge_trail == b.edge_trail

    def test_edge_counts_match_profile(self, program):
        """Capturing with the profiler's seed reproduces the profile."""
        profile = profile_program(program, seed=0)
        capture = capture_trace(link_identity(program), seed=0)
        for name in profile.procedures():
            for (src, dst), count in profile.proc_edges(name).items():
                if count:
                    assert capture.edge_counts[(name, src, dst)] == count

    def test_trail_flag_disables_edge_trail(self, program):
        capture = capture_trace(link_identity(program), seed=0, trail=False)
        assert capture.edge_trail == []
        assert capture.edge_counts  # counts still collected

    def test_block_sequence_layout_independent(self, program):
        """The stable block sequence is identical across layouts."""
        from repro.core import GreedyAligner

        profile = profile_program(program, seed=0)
        layout = GreedyAligner(chain_order="weight").align(program, profile)
        base = capture_trace(link_identity(program), seed=0)
        aligned = capture_trace(link(layout), seed=0)
        assert base.blocks == aligned.blocks
        assert base.edge_counts == aligned.edge_counts

    def test_max_events_caps_capture(self, program):
        capped = capture_trace(link_identity(program), seed=0, max_events=10)
        assert capped.events <= 10
