"""Position-exact sense refinement after chain ordering.

During chain construction the BT/FNT cost model can only *guess* whether a
taken branch will point backward — the paper notes this directly: "When
forming chains, it is not known where the taken branch will be located in
the final procedure until the chains are formed and laid out."  Once the
block order is fixed, however, every branch direction is known exactly, so
each conditional's remaining freedom — which successor its taken edge
names, and whether an appended jump carries the other successor — can be
re-optimised exactly without moving any block:

* configuration T: the branch takes the original taken successor; the
  fall-through side reaches the other successor directly (if adjacent) or
  through an appended jump;
* configuration F: the branch sense is inverted, symmetrically.

Both are evaluated under the architecture cost model with the true
backward/forward direction read off the final positions, and the cheaper
one wins.  This never changes the dynamic block sequence, only branch
senses and jump placement, so it composes with any chain-building
algorithm.  It works from the block order alone, before any layout
exists, and builds the procedure's one layout; a chain search's choice
of jump for a sealed conditional only priced the seal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cfg import BlockId, Procedure, TerminatorKind
from ..isa.layout import BlockPlacement, ProcedureLayout, adjacent_placement
from ..profiling.edge_profile import EdgeProfile
from .costmodel import ArchModel


def refine_senses(
    proc: Procedure, order: Sequence[BlockId], model: ArchModel, profile: EdgeProfile
) -> ProcedureLayout:
    """Lay ``order`` out, picking every conditional's sense/jump optimally.

    Every other block gets the rewrite its adjacency implies
    (:func:`~repro.isa.layout.adjacent_placement`).
    """
    position = {bid: idx for idx, bid in enumerate(order)}
    nexts: List[Optional[BlockId]] = [*order[1:], None]
    placements = []
    for idx, (bid, nxt) in enumerate(zip(order, nexts)):
        block = proc.block(bid)
        if block.kind is not TerminatorKind.COND:
            placements.append(adjacent_placement(proc, bid, nxt))
            continue
        taken = proc.taken_edge(bid).dst  # type: ignore[union-attr]
        fall = proc.fallthrough_edge(bid).dst  # type: ignore[union-attr]
        w_taken = profile.weight(proc.name, bid, taken)
        w_fall = profile.weight(proc.name, bid, fall)

        # Configuration T: branch takes `taken`; fall-through side is `fall`.
        cost_t = model.cond_cost(w_fall, w_taken, position[taken] <= idx)
        if nxt != fall:
            cost_t += model.uncond_cost(w_fall)
        # Configuration F: inverted; branch takes `fall`, fall-through `taken`.
        cost_f = model.cond_cost(w_taken, w_fall, position[fall] <= idx)
        if nxt != taken:
            cost_f += model.uncond_cost(w_taken)

        if cost_f < cost_t:
            jump: Optional[int] = None if nxt == taken else taken
            placements.append(BlockPlacement(bid, taken_target=fall, jump_target=jump))
        else:
            jump = None if nxt == fall else fall
            placements.append(BlockPlacement(bid, taken_target=taken, jump_target=jump))
    return ProcedureLayout(proc, placements)
