"""The Cost branch alignment heuristic (section 4 of the paper).

Like Greedy, the Cost algorithm walks edges from heaviest to lightest,
but before linking S -> D it consults the architecture cost model:

* For a single-exit block, it weighs making the edge a fall-through
  against ending the block with an unconditional branch.
* For a conditional block it weighs three configurations — either
  successor as the fall-through, or *neither* (appending an unconditional
  jump to one side), the transformation that converts a self-loop's
  repeated mispredict into a correctly-predicted fall-through plus a
  cheap jump under the FALLTHROUGH architecture.
* It also examines the other predecessors of D: if some other block would
  profit more from having D as its fall-through, the link is deferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..cfg import BlockId, Procedure, TerminatorKind
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet
from .costmodel import ArchModel


@dataclass(frozen=True)
class AlignmentOption:
    """One candidate configuration for a block's layout successor.

    ``kind`` is "link" (make ``target`` the fall-through) or "seal" (no
    fall-through successor; conditionals send ``jump`` through an appended
    unconditional jump).  ``cost`` is the modelled cycles of the block's
    branches under this configuration.  A search prices a seal by its
    ``jump`` but keeps only the seal: once the blocks are ordered,
    :func:`~repro.core.refine.refine_senses` picks the jump again from
    the final positions.
    """

    kind: str
    cost: float
    target: Optional[BlockId] = None
    jump: Optional[BlockId] = None


def block_options(
    proc: Procedure,
    bid: BlockId,
    profile: EdgeProfile,
    model: ArchModel,
    retreating: Set[Tuple[BlockId, BlockId]],
    chains: Optional[ChainSet] = None,
) -> List[AlignmentOption]:
    """Enumerate the feasible alignment configurations for one block.

    When ``chains`` is given, link options that are already structurally
    impossible are dropped.  Options come back sorted cheapest first, with
    link options preferred on ties (a fall-through never costs more than
    the equivalent jump, and keeps the code smaller).
    """
    block = proc.block(bid)
    options: List[AlignmentOption] = []
    if block.kind is TerminatorKind.COND:
        taken = proc.taken_edge(bid).dst  # type: ignore[union-attr]
        fall = proc.fallthrough_edge(bid).dst  # type: ignore[union-attr]
        w_taken = profile.weight(proc.name, bid, taken)
        w_fall = profile.weight(proc.name, bid, fall)
        back_taken = (bid, taken) in retreating
        back_fall = (bid, fall) in retreating
        if chains is None or chains.can_link(bid, fall):
            options.append(
                AlignmentOption(
                    "link", model.cond_cost(w_fall, w_taken, back_taken), target=fall
                )
            )
        if chains is None or chains.can_link(bid, taken):
            options.append(
                AlignmentOption(
                    "link", model.cond_cost(w_taken, w_fall, back_fall), target=taken
                )
            )
        options.append(
            AlignmentOption(
                "seal",
                model.cond_neither_cost(w_fall, w_taken, back_taken),
                jump=fall,
            )
        )
        options.append(
            AlignmentOption(
                "seal",
                model.cond_neither_cost(w_taken, w_fall, back_fall),
                jump=taken,
            )
        )
    elif block.kind in (TerminatorKind.FALLTHROUGH, TerminatorKind.UNCOND):
        edge = proc.fallthrough_edge(bid) or proc.taken_edge(bid)
        assert edge is not None
        weight = profile.weight(proc.name, bid, edge.dst)
        linked_cost, unlinked_cost = model.single_exit_costs(weight)
        if chains is None or chains.can_link(bid, edge.dst):
            options.append(AlignmentOption("link", linked_cost, target=edge.dst))
        options.append(AlignmentOption("seal", unlinked_cost))
    options.sort(key=lambda o: (o.cost, 0 if o.kind == "link" else 1, o.target or -1))
    return options


class CostAligner(Aligner):
    """Architecture-aware greedy alignment using local cost decisions."""

    name = "cost"

    def __init__(self, model: ArchModel, chain_order: str = "weight"):
        self.model = model
        self.chain_order = chain_order

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Decide each hot block's cheapest configuration in weight order."""
        chains = ChainSet(proc)
        retreating = proc.cyclic_edge_pairs()
        decided: Set[BlockId] = set()

        for (src, _dst), _w in profile.sorted_edges(proc, min_weight=1):
            if src in decided:
                continue
            block = proc.block(src)
            if not block.kind.alignable:
                continue
            options = block_options(proc, src, profile, self.model, retreating, chains)
            if not options:
                continue
            best = options[0]
            if best.kind == "link":
                assert best.target is not None
                if self._should_defer(
                    proc, src, best, profile, retreating, chains, decided
                ):
                    continue
                chains.link(src, best.target)
            else:
                chains.seal(src)
            decided.add(src)

        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains

    # ------------------------------------------------------------------
    def _should_defer(
        self,
        proc: Procedure,
        src: BlockId,
        best: AlignmentOption,
        profile: EdgeProfile,
        retreating: Set[Tuple[BlockId, BlockId]],
        chains: ChainSet,
        decided: Set[BlockId],
    ) -> bool:
        """True if another predecessor profits more from this target.

        "We examine all the predecessors of D to see if it is more cost
        effective to connect D to another node."  Benefit is measured as
        the modelled cycles saved by getting the target as fall-through
        versus this block's best alternative configuration.
        """
        target = best.target
        assert target is not None
        my_benefit = self._link_benefit(proc, src, target, profile, retreating, chains)
        for pred in proc.predecessors(target):
            if pred == src or pred in decided:
                continue
            if not proc.block(pred).kind.alignable:
                continue
            if not chains.can_link(pred, target):
                continue
            their_benefit = self._link_benefit(
                proc, pred, target, profile, retreating, chains
            )
            if their_benefit > my_benefit:
                return True
        return False

    def _link_benefit(
        self,
        proc: Procedure,
        src: BlockId,
        target: BlockId,
        profile: EdgeProfile,
        retreating: Set[Tuple[BlockId, BlockId]],
        chains: ChainSet,
    ) -> float:
        options = block_options(proc, src, profile, self.model, retreating, chains)
        with_target = [o.cost for o in options if o.kind == "link" and o.target == target]
        without = [o.cost for o in options if not (o.kind == "link" and o.target == target)]
        if not with_target or not without:
            return 0.0
        return min(without) - min(with_target)
