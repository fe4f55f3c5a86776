"""Unit tests for the Alpha AXP 21064 front-end timing model."""

import pytest

import repro.sim.alpha
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.sim.alpha import AlphaConfig, AlphaSim, alpha_execution_cycles
from repro.sim import trace as tr
from repro.sim.decisions import capture_decisions
from repro.sim.executor import execute
from repro.sim.replay import ReplayMismatchError, replay
from repro.core import GreedyAligner, TryNAligner, make_model
from repro.workloads import FIGURE4_PROGRAMS, generate_benchmark
from tests.conftest import single_block_program


class TestConfig:
    def test_paper_constants(self):
        config = AlphaConfig()
        assert config.issue_width == 2
        assert config.icache_bytes == 8 * 1024
        assert config.line_bytes == 32
        assert config.lines == 256
        # Misfetches are squashed roughly 30% of the time (section 6.1).
        assert config.effective_misfetch == pytest.approx(0.7)
        # "ten instructions" combined mispredict penalty at dual issue.
        assert config.mispredict_cycles == 5.0


class TestCycleModel:
    def test_dual_issue_baseline(self):
        sim = alpha_execution_cycles(link_identity(single_block_program()))
        # 3 instructions, one I-cache miss, one unpredicted return.
        assert sim.instructions == 3
        assert sim.cycles >= 3 / 2

    def test_history_bit_initialised_btfnt(self, loop_program):
        sim = alpha_execution_cycles(link_identity(loop_program))
        # The loop latch is a backward branch: the BT/FNT initial bit
        # predicts it taken, so only the final exit mispredicts.
        assert sim.cond_executed == 10
        assert sim.cond_correct == 9

    def test_icache_miss_counting(self, loop_program):
        sim = alpha_execution_cycles(link_identity(loop_program))
        # The whole program fits in a few lines, fetched once.
        linked = link_identity(loop_program)
        footprint_lines = (linked.total_size() * 4 + 31) // 32 + 1
        assert 1 <= sim.icache_misses <= footprint_lines

    def test_eviction_resets_history_bits(self):
        config = AlphaConfig(icache_bytes=64, line_bytes=32)  # 2 lines
        linked = link_identity(single_block_program())
        sim = AlphaSim(linked, config)
        site = 0x120000000
        sim._taken_targets = {site: site - 64}
        sim.on_block(site, 4)
        sim.on_event((tr.COND, site, site - 64, True))
        assert sim._bits[site] is True
        # Touch a conflicting line: same index, different tag.
        sim.on_block(site + 64, 4)
        assert site not in sim._bits

    def test_alignment_never_slows_the_model_much(self, loop_program):
        profile = profile_program(loop_program)
        original = alpha_execution_cycles(link_identity(loop_program))
        aligner = TryNAligner(make_model("btb"))
        aligned = alpha_execution_cycles(link(aligner.align(loop_program, profile)))
        assert aligned.cycles <= original.cycles * 1.05


def _tallies(sim):
    return {
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "icache_misses": sim.icache_misses,
        "misfetch_cycles": sim.misfetch_cycles,
        "mispredict_cycles": sim.mispredict_cycles,
        "cond_executed": sim.cond_executed,
        "cond_correct": sim.cond_correct,
    }


class TestReplay:
    """Figure 4 replays one decision trace through all three images."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", FIGURE4_PROGRAMS)
    def test_replay_equals_execute_on_figure4_images(self, name, seed):
        program = generate_benchmark(name, 0.05)
        trace = capture_decisions(program, seed=seed)
        profile = trace.edge_profile(program)
        images = {
            "original": link_identity(program),
            "greedy": link(GreedyAligner(chain_order="weight").align(program, profile)),
            "try15-btb": link(TryNAligner(make_model("btb")).align(program, profile)),
        }
        for label, linked in images.items():
            replayed = alpha_execution_cycles(linked, trace, replay_check=False)
            executed = AlphaSim(linked)
            execute(linked, listeners=[executed], block_listeners=[executed], seed=seed)
            assert _tallies(replayed) == _tallies(executed), f"{name}/{label}"

    def test_replay_check_catches_a_dropped_block(self, loop_program, monkeypatch):
        def lossy_replay(linked, trace, listeners=(), block_listeners=()):
            skipped = []

            class DropFirst:
                def on_block(self, start, size):
                    if not skipped:
                        skipped.append(start)
                        return
                    for listener in block_listeners:
                        listener.on_block(start, size)

            return replay(linked, trace, listeners, [DropFirst()])

        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        alpha_execution_cycles(linked, trace, replay_check=True)
        monkeypatch.setattr(repro.sim.alpha, "replay", lossy_replay)
        alpha_execution_cycles(linked, trace, replay_check=False)
        with pytest.raises(ReplayMismatchError):
            alpha_execution_cycles(linked, trace, replay_check=True)

    def test_replay_check_defaults_to_the_environment(self, loop_program, monkeypatch):
        monkeypatch.setattr(repro.sim.alpha, "replay", lambda *args, **kwargs: None)
        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        monkeypatch.delenv("REPRO_REPLAY_CHECK", raising=False)
        alpha_execution_cycles(linked, trace)
        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        with pytest.raises(ReplayMismatchError):
            alpha_execution_cycles(linked, trace)
