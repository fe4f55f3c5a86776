"""Layout quality metrics: the quantities the paper narrates.

Relative CPI is the headline, but the paper's discussion runs on layout
internals: the percentage of executed conditional branches that fall
through (Yeh et al's 62%-taken problem; Hwu & Chang's 58% fall-through
result; Table 3's %FT columns), how many taken branches point backward
(what BT/FNT rewards), how many dynamic unconditional jumps the layout
executes, and how long the chains got.  ``layout_quality`` computes all
of them for any linked binary + profile, statically — no simulation run
needed — so layouts can be compared instantly and the numbers agree with
the simulated Table 3 %FT columns by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cfg import Program, TerminatorKind
from ..isa.encoder import LinkedProgram
from ..profiling.edge_profile import EdgeProfile
from .reporting import format_table


@dataclass
class LayoutQuality:
    """Static layout quality measures, weighted by the profile."""

    #: Executed conditional branches (profile-weighted).
    cond_executed: int = 0
    #: ... of which taken under this layout.
    cond_taken: int = 0
    #: Taken conditional executions whose target lies at a lower address.
    cond_taken_backward: int = 0
    #: Dynamic executions of unconditional branches (kept + inserted).
    uncond_executed: int = 0
    #: Dynamic executions flowing through alignment-inserted jumps.
    inserted_jump_executed: int = 0
    #: Dynamic executions saved by deleted unconditional branches.
    removed_branch_executed: int = 0
    #: Static text growth in instructions (inserted - removed).
    static_size_delta: int = 0
    #: Number of maximal fall-through chains in the final order.
    chains: int = 0
    #: Longest fall-through chain, in blocks.
    longest_chain: int = 0

    @property
    def percent_fallthrough(self) -> float:
        """Fall-through percentage of executed conditionals (Table 3)."""
        if not self.cond_executed:
            return 100.0
        return 100.0 * (self.cond_executed - self.cond_taken) / self.cond_executed

    @property
    def percent_taken_backward(self) -> float:
        """Backward share of *taken* conditional executions."""
        if not self.cond_taken:
            return 0.0
        return 100.0 * self.cond_taken_backward / self.cond_taken


def layout_quality(linked: LinkedProgram, profile: EdgeProfile) -> LayoutQuality:
    """Compute profile-weighted quality measures for a linked layout."""
    quality = LayoutQuality()
    for proc in linked.program:
        layout = linked.layout[proc.name]
        order = [p.bid for p in layout.placements]
        # Chain statistics: a chain breaks wherever control cannot fall
        # through from one placed block to the next.
        run = 1
        for idx, placement in enumerate(layout.placements):
            block = proc.block(placement.bid)
            falls_into_next = (
                block.kind is TerminatorKind.FALLTHROUGH
                and placement.jump_target is None
            ) or (
                block.kind is TerminatorKind.COND and placement.jump_target is None
            ) or placement.branch_removed
            if idx + 1 < len(order) and falls_into_next:
                run += 1
            else:
                quality.chains += 1
                quality.longest_chain = max(quality.longest_chain, run)
                run = 1

        for placement in layout.placements:
            block = proc.block(placement.bid)
            kind = block.kind
            if kind is TerminatorKind.COND:
                taken_edge = proc.taken_edge(block.bid)
                fall_edge = proc.fallthrough_edge(block.bid)
                target = placement.taken_target
                other = (
                    fall_edge.dst if target == taken_edge.dst else taken_edge.dst
                )
                w_taken = profile.weight(proc.name, block.bid, target)
                w_fall = profile.weight(proc.name, block.bid, other)
                quality.cond_executed += w_taken + w_fall
                quality.cond_taken += w_taken
                lb = linked.block(proc.name, block.bid)
                if (
                    lb.term_address is not None
                    and linked.block_address(proc.name, target) < lb.term_address
                ):
                    quality.cond_taken_backward += w_taken
                if placement.jump_target is not None:
                    quality.uncond_executed += w_fall
                    quality.inserted_jump_executed += w_fall
            elif kind is TerminatorKind.UNCOND:
                dst = proc.taken_edge(block.bid).dst  # type: ignore[union-attr]
                weight = profile.weight(proc.name, block.bid, dst)
                if placement.branch_removed:
                    quality.removed_branch_executed += weight
                    quality.static_size_delta -= 1
                else:
                    quality.uncond_executed += weight
            elif kind is TerminatorKind.FALLTHROUGH:
                if placement.jump_target is not None:
                    weight = profile.weight(
                        proc.name, block.bid, placement.jump_target
                    )
                    quality.uncond_executed += weight
                    quality.inserted_jump_executed += weight
        quality.static_size_delta += len(layout.inserted_jumps())
    return quality


def compare_layout_quality(
    qualities: Dict[str, LayoutQuality],
) -> str:
    """Render several layouts' quality measures side by side."""
    metrics = [
        ("% fall-through conds", lambda q: f"{q.percent_fallthrough:.1f}"),
        ("% taken that are backward", lambda q: f"{q.percent_taken_backward:.1f}"),
        ("dynamic uncond branches", lambda q: f"{q.uncond_executed:,}"),
        ("  via inserted jumps", lambda q: f"{q.inserted_jump_executed:,}"),
        ("  saved by deletions", lambda q: f"{q.removed_branch_executed:,}"),
        ("static size delta", lambda q: f"{q.static_size_delta:+d}"),
        ("fall-through chains", lambda q: f"{q.chains:,}"),
        ("longest chain (blocks)", lambda q: f"{q.longest_chain:,}"),
    ]
    names = list(qualities)
    rows = [
        [label] + [fn(qualities[name]) for name in names]
        for label, fn in metrics
    ]
    return format_table(["Metric"] + names, rows)
