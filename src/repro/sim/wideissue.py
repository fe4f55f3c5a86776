"""A wide-issue fetch model: quantifying the paper's motivation.

The paper argues branch alignment will matter *more* on wide-issue
machines: "Eliminating instruction misfetches will be increasingly
important as super-scalar architectures become more common — a four-issue
super-scalar architecture could encounter a branch every two or three
cycles.  It should benefit such architectures to have frequent
fall-through branches.  However, the relative CPI metric shown only
reflects the improvement of a single issue architecture."

This model supplies the missing metric.  A ``W``-wide front end fetches up
to ``W`` *sequential* instructions per cycle; any taken control transfer
ends the fetch packet, wasting the packet's remaining slots.  Fetch cycles
are therefore the sum over maximal sequential runs of ``ceil(run / W)``,
plus the usual misfetch/mispredict penalties.  Fall-through-heavy layouts
produce longer runs, so alignment's benefit grows with issue width —
exactly the claim, made measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.encoder import LinkedProgram
from . import trace as tr
from .executor import execute


@dataclass(frozen=True)
class WideIssueConfig:
    """Front-end parameters of the wide-issue model."""

    issue_width: int = 4
    misfetch_cycles: float = 1.0
    mispredict_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError(f"issue width must be >= 1, got {self.issue_width}")


class WideIssueFrontEnd:
    """Listener accumulating fetch cycles for a ``W``-wide front end.

    Attach as both an event listener and a block listener.  The direction
    predictor is idealised (profile-perfect, like LIKELY): the point of
    this model is fetch *bandwidth*, so only taken-ness and misfetch
    fragmentation vary between layouts; mispredicts are charged for
    minority directions via the supplied per-site likely bits when given,
    or assumed perfectly predicted otherwise.
    """

    def __init__(self, config: WideIssueConfig = WideIssueConfig(),
                 likely_bits: Optional[dict] = None):
        self.config = config
        self._likely = likely_bits
        self._run = 0           # instructions in the current sequential run
        self.instructions = 0
        self.fetch_cycles = 0
        self.taken_transfers = 0
        self.penalty_cycles = 0.0

    # ------------------------------------------------------------------
    def on_block(self, start: int, size: int) -> None:
        """Extend the current sequential fetch run by one block."""
        self.instructions += size
        self._run += size

    def on_event(self, event) -> None:
        """Close the fetch packet on taken transfers; charge penalties."""
        kind, site, target, taken = event
        if kind == tr.COND:
            if self._likely is not None:
                predicted = self._likely.get(site, False)
                if predicted != taken:
                    self.penalty_cycles += self.config.mispredict_cycles
                elif taken:
                    self.penalty_cycles += self.config.misfetch_cycles
            if not taken:
                return  # the run continues through a not-taken branch
        else:
            self.penalty_cycles += self.config.misfetch_cycles
        # A taken transfer ends the fetch packet run.
        self.taken_transfers += 1
        self._flush_run()

    def _flush_run(self) -> None:
        if self._run:
            width = self.config.issue_width
            self.fetch_cycles += (self._run + width - 1) // width
            self._run = 0

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total modelled cycles (flushes the trailing run)."""
        self._flush_run()
        return self.fetch_cycles + self.penalty_cycles

    @property
    def fetch_efficiency(self) -> float:
        """Instructions per fetch cycle, out of ``issue_width``."""
        cycles = self.cycles - self.penalty_cycles
        return self.instructions / cycles if cycles else 0.0


def wide_issue_cycles(
    linked: LinkedProgram,
    config: WideIssueConfig = WideIssueConfig(),
    likely_bits: Optional[dict] = None,
    seed: int = 0,
) -> WideIssueFrontEnd:
    """Run a linked binary through the wide-issue front end."""
    front_end = WideIssueFrontEnd(config, likely_bits)
    execute(linked, listeners=[front_end], block_listeners=[front_end], seed=seed)
    return front_end
