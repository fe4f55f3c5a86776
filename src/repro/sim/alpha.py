"""A DEC Alpha AXP 21064 front-end timing model (Figure 4's substrate).

The paper describes the 21064 as "a dual issue architecture which uses a
combination of dynamic and static branch prediction.  Each instruction in
the on-chip cache has a single bit indicating the previous branch
direction for that instruction.  When a cache line is flushed, all the
bits are initialized with the bit from each instruction where the sign
displacement should be located.  Thus the performance expected by this
architecture is a cross between a direct mapped PHT table and a BT/FNT
architecture."  It also notes that "misfetch penalties can be squashed if
the pipeline is currently waiting on other stalls ... taken branches are
squashed roughly 30% of the time."

This model implements exactly that:

* dual issue — the no-stall baseline is ``instructions / 2`` cycles;
* an 8 KB direct-mapped instruction cache with 32-byte lines;
* one dynamic history bit per branch, resident in its I-cache line,
  re-initialised to the BT/FNT static prediction whenever the line is
  (re)filled;
* a 4-cycle mispredict penalty and a 1-cycle misfetch penalty, the
  latter squashed 30% of the time (charged as an expected 0.7 cycles);
* a flat I-cache miss penalty, giving block reordering the same weak
  cache-locality benefit the hardware runs showed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..isa.encoder import LinkedProgram
from . import trace as tr
from .decisions import DecisionTrace, capture_decisions
from .executor import execute
from .metrics import replay_check_enabled
from .predictors.ras import ReturnStack
from .predictors.static_ import conditional_taken_targets
from .replay import ReplayMismatchError, replay


@dataclass(frozen=True)
class AlphaConfig:
    """Tunable constants of the 21064 front-end model."""

    issue_width: int = 2
    icache_bytes: int = 8 * 1024
    line_bytes: int = 32
    # "The combined branch mispredict penalty for the Digital Alpha AXP
    # 21064 processor is ten instructions" — five cycles at dual issue.
    mispredict_cycles: float = 5.0
    misfetch_cycles: float = 1.0
    misfetch_squash_rate: float = 0.30
    icache_miss_cycles: float = 5.0
    ras_depth: int = 32

    @property
    def lines(self) -> int:
        return self.icache_bytes // self.line_bytes

    @property
    def effective_misfetch(self) -> float:
        return self.misfetch_cycles * (1.0 - self.misfetch_squash_rate)


class AlphaSim:
    """Event/block listener accumulating 21064 front-end cycles."""

    name = "alpha21064"

    def __init__(self, linked: LinkedProgram, config: AlphaConfig = AlphaConfig()):
        self.config = config
        self._taken_targets = conditional_taken_targets(linked)
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_lines = config.lines
        self._tags: Dict[int, int] = {}
        self._bits: Dict[int, bool] = {}
        self._line_sites: Dict[int, Set[int]] = {}
        self.ras = ReturnStack(config.ras_depth)
        self.instructions = 0
        self.icache_misses = 0
        self.misfetch_cycles = 0.0
        self.mispredict_cycles = 0.0
        self.cond_executed = 0
        self.cond_correct = 0

    # ------------------------------------------------------------------
    def on_block(self, start: int, size: int) -> None:
        """Fetch the block's instructions through the I-cache."""
        self.instructions += size
        first = start >> self._line_shift
        last = (start + size * 4 - 1) >> self._line_shift
        tags = self._tags
        for line in range(first, last + 1):
            index = line % self._num_lines
            if tags.get(index) != line:
                tags[index] = line
                self.icache_misses += 1
                # Refill wipes the dynamic history bits of the old line.
                for site in self._line_sites.pop(index, ()):
                    self._bits.pop(site, None)

    def on_event(self, event) -> None:
        """Charge branch penalties for one control-flow event."""
        kind, site, target, taken = event
        cfg = self.config
        if kind == tr.COND:
            self.cond_executed += 1
            bit = self._bits.get(site)
            if bit is None:
                # First execution since the line was filled: the bit holds
                # the BT/FNT static prediction from the sign displacement.
                bit = self._taken_targets[site] < site
                index = (site >> self._line_shift) % self._num_lines
                self._line_sites.setdefault(index, set()).add(site)
            if bit == taken:
                self.cond_correct += 1
                if taken:
                    self.misfetch_cycles += cfg.effective_misfetch
            else:
                self.mispredict_cycles += cfg.mispredict_cycles
            self._bits[site] = taken
        elif kind == tr.UNCOND:
            self.misfetch_cycles += cfg.effective_misfetch
        elif kind == tr.CALL:
            self.misfetch_cycles += cfg.effective_misfetch
            self.ras.push(site + 4)
        elif kind == tr.ICALL:
            self.mispredict_cycles += cfg.mispredict_cycles
            self.ras.push(site + 4)
        elif kind == tr.INDIRECT:
            self.mispredict_cycles += cfg.mispredict_cycles
        else:  # RET
            if not self.ras.pop_predict(target):
                self.mispredict_cycles += cfg.mispredict_cycles

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total modelled execution time in cycles."""
        return (
            self.instructions / self.config.issue_width
            + self.misfetch_cycles
            + self.mispredict_cycles
            + self.icache_misses * self.config.icache_miss_cycles
        )


def alpha_execution_cycles(
    linked: LinkedProgram,
    trace: Optional[DecisionTrace] = None,
    seed: int = 0,
    config: AlphaConfig = AlphaConfig(),
    replay_check: Optional[bool] = None,
) -> AlphaSim:
    """Replay a decision trace through the 21064 model; returns the simulator.

    ``trace`` is the program's decision trace, captured with ``seed``
    when not handed in.  ``replay_check`` (default: the
    ``REPRO_REPLAY_CHECK`` environment variable, as for
    :func:`~repro.sim.metrics.simulate`) also executes ``linked`` on a
    second simulator and raises
    :class:`~repro.sim.replay.ReplayMismatchError` unless every tally
    matches.
    """
    if trace is None:
        trace = capture_decisions(linked.program, seed=seed)
    sim = AlphaSim(linked, config)
    replay(linked, trace, listeners=[sim], block_listeners=[sim])
    if replay_check is None:
        replay_check = replay_check_enabled()
    if replay_check:
        executed = AlphaSim(linked, config)
        execute(linked, listeners=[executed], block_listeners=[executed], seed=seed)
        if _tallies(sim) != _tallies(executed):
            raise ReplayMismatchError(
                "Alpha replay diverged from execute:\n"
                f"  replay:  {_tallies(sim)}\n  execute: {_tallies(executed)}"
            )
    return sim


def _tallies(sim: AlphaSim) -> Dict[str, float]:
    """The counts ``cycles`` is computed from."""
    names = ("instructions", "icache_misses", "misfetch_cycles",
             "mispredict_cycles", "cond_executed", "cond_correct")
    return {name: getattr(sim, name) for name in names}
