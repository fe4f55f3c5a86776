"""Decision-tree-inspired trace growth for dispatch-heavy CFGs.

Baer's work on conditional branches in optimal decision trees makes one
observation that transfers directly to block layout: in a tree of
dispatch tests, the expected number of *taken* transfers is minimised by
placing each node's most probable child immediately after it, so the hot
root-to-leaf path becomes pure fall-through and cold outcomes pay the
jumps.

This aligner applies that rule to arbitrary CFGs as greedy trace growth:

* start a trace at the procedure entry;
* repeatedly extend it along the highest-weight feasible outgoing edge
  of the current tail (ties prefer the CFG fall-through successor, then
  the lower block id), the "split on the most probable outcome" step;
* when the trace cannot grow, reseed from the hottest block not yet in
  any trace, so nested dispatch chains each get their own hot spine.

A dispatch ladder — entry testing case 1, falling into a test for
case 2, and so on — therefore lays out exactly in ladder order with each
test's hot target adjacent, while a skewed ladder gets its hot case
hoisted into the fall-through path.

Like Greedy and ext-TSP, the ordering is architecture-blind: one layout
serves every simulated architecture and no sense refinement runs.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..cfg import BlockId, EdgeKind, Procedure
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet


class DispTreeAligner(Aligner):
    """Greedy most-probable-successor trace growth."""

    name = "disptree"

    # ------------------------------------------------------------------
    def _best_successor(
        self,
        proc: Procedure,
        profile: EdgeProfile,
        chains: ChainSet,
        bid: BlockId,
        placed: Set[BlockId],
    ) -> Optional[BlockId]:
        """The heaviest feasible successor to extend the trace with."""
        best: Optional[BlockId] = None
        best_rank: Tuple[int, int, int] = (-1, -1, 0)
        for edge in proc.out_edges(bid):
            if edge.kind not in (EdgeKind.FALLTHROUGH, EdgeKind.TAKEN):
                continue
            if edge.dst in placed or not chains.can_link(bid, edge.dst):
                continue
            weight = profile.weight(proc.name, bid, edge.dst)
            rank = (
                weight,
                1 if edge.kind is EdgeKind.FALLTHROUGH else 0,
                -edge.dst,
            )
            if rank > best_rank:
                best, best_rank = edge.dst, rank
        return best

    # ------------------------------------------------------------------
    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        chains = ChainSet(proc)
        # Seed order: entry first (it must head the layout anyway), then
        # hottest blocks first so each dispatch region grows its own
        # trace before cold stitching runs.
        seeds = [proc.entry] + sorted(
            (b for b in proc.blocks if b != proc.entry),
            key=lambda b: (-profile.block_weight(proc, b), b),
        )
        placed: Set[BlockId] = set()
        for seed in seeds:
            if seed in placed:
                continue
            placed.add(seed)
            cursor = seed
            while True:
                nxt = self._best_successor(proc, profile, chains, cursor, placed)
                if nxt is None:
                    break
                chains.link(cursor, nxt)
                placed.add(nxt)
                cursor = nxt
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains
