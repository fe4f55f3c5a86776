"""Hwu & Chang (IMPACT-I) style trace packing — a prior-work baseline.

From the paper's related work: "Hwu and Chang examined all basic blocks,
rearranging them to achieve a better branch alignment ... For each
subroutine, instructions are packed using the most frequently executed
traces, moving infrequently executed traces to the end of the function."
(This reproduction performs no inlining or global analysis, matching the
paper's own restrictions.)

The algorithm grows *traces*: starting from the hottest unplaced block, it
repeatedly extends the trace along the most frequently executed outgoing
edge whose target is still unplaced, then starts the next trace at the
hottest remaining block.  Traces are emitted hottest-first (after the
entry trace).  Unlike Pettis–Hansen chains, trace growing follows *taken*
edges just as happily as fall-through edges — each selected edge becomes a
fall-through in the final layout where structurally possible.

The paper reports Hwu & Chang measured a 58% fall-through rate after this
style of alignment; the trace aligner gives the test suite that historical
reference point next to Greedy, Cost and TryN.
"""

from __future__ import annotations

from typing import Optional, Set

from ..cfg import BlockId, Procedure
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet


class TraceAligner(Aligner):
    """IMPACT-I-style trace growing over profile-weighted edges."""

    name = "trace"

    def __init__(self, chain_order: str = "weight"):
        self.chain_order = chain_order

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Grow hottest-first traces along heaviest outgoing edges."""
        chains = ChainSet(proc)
        placed: Set[BlockId] = set()
        # Hottest-block seeds, entry first so the entry trace leads.
        seeds = sorted(
            proc.blocks,
            key=lambda bid: (
                bid != proc.entry,
                -profile.block_weight(proc, bid),
                bid,
            ),
        )
        for seed in seeds:
            if seed in placed:
                continue
            self._grow_trace(proc, profile, chains, placed, seed)
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains

    # ------------------------------------------------------------------
    def _grow_trace(
        self,
        proc: Procedure,
        profile: EdgeProfile,
        chains: ChainSet,
        placed: Set[BlockId],
        seed: BlockId,
    ) -> None:
        current = seed
        placed.add(current)
        while True:
            successor = self._best_successor(proc, profile, chains, placed, current)
            if successor is None:
                return
            chains.link(current, successor)
            placed.add(successor)
            current = successor

    def _best_successor(
        self,
        proc: Procedure,
        profile: EdgeProfile,
        chains: ChainSet,
        placed: Set[BlockId],
        bid: BlockId,
    ) -> Optional[BlockId]:
        if not proc.block(bid).kind.alignable:
            return None
        best: Optional[BlockId] = None
        best_weight = -1
        for edge in proc.out_edges(bid):
            dst = edge.dst
            if dst in placed or not chains.can_link(bid, dst):
                continue
            weight = profile.weight(proc.name, bid, dst)
            if weight > best_weight or (weight == best_weight and (best is None or dst < best)):
                best = dst
                best_weight = weight
        return best
