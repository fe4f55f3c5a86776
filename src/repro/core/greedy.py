"""The Pettis–Hansen bottom-up ("greedy") branch alignment algorithm.

From section 4 of the paper:

    "The edge S -> D ... with the largest weight is selected.  The
    algorithm then attempts to position node D as the fall-through of
    node S.  If S does not already have a fall-through basic block, and D
    does not already have a head, then these two basic blocks are
    combined into a chain.  Otherwise, these blocks cannot be linked. ...
    This is repeated until all edges have been examined and chains can no
    longer be merged."

The Greedy algorithm is architecture-blind: it never consults a cost
model.  Pettis and Hansen aimed it at the BT/FNT architecture and ordered
chains with a precedence relation; the paper found ordering chains from
most to least executed performs slightly better, and used that ordering
for every simulation except the BT/FNT one — this class follows suit via
``chain_order``.
"""

from __future__ import annotations

from ..cfg import Procedure
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet


class GreedyAligner(Aligner):
    """Pettis–Hansen bottom-up chain merging."""

    name = "greedy"

    def __init__(self, chain_order: str = "weight"):
        self.chain_order = chain_order

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Merge chains along edges in descending weight order."""
        chains = ChainSet(proc)
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains
