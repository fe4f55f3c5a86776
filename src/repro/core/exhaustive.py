"""Exhaustive minimal-cost alignment for small procedures.

Section 4: "We briefly considered using the cost model to assess the cost
of every possible basic block alignment using an exhaustive search and
selecting the minimal cost ordering.  In practice, this sounds expensive,
but in the common case procedures contain 5-15 basic blocks.  However,
most programs have procedures containing hundreds of blocks, making
exhaustive search impossible for those procedures."

This aligner implements that rejected-but-instructive baseline: it
enumerates every block permutation (entry fixed first), applies the
position-exact sense refinement to each, and keeps the cheapest under the
architecture cost model.  It is exponential — procedures above
``max_blocks`` fall back to a TryN search — but it gives the test suite a
provably optimal reference against which the heuristics' quality is
measured (TryN should land within a few percent on small CFGs).
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional

from ..cfg import Procedure, TerminatorKind
from ..isa.layout import ProcedureLayout
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner
from .chains import ChainSet
from .costmodel import ArchModel
from .refine import refine_senses
from .tryn import TryNAligner


class ExhaustiveAligner(Aligner):
    """Minimal-cost alignment by enumerating all block orders.

    Cost is evaluated with the same position-based accounting the
    refinement pass uses (identical to ``ArchModel.procedure_cost`` on the
    linked binary), so the returned layout is optimal for the model among
    all (order, sense, jump) combinations.
    """

    name = "exhaustive"

    def __init__(self, model: ArchModel, max_blocks: int = 8, window: int = 15):
        self.model = model
        self.max_blocks = max_blocks
        self._fallback = TryNAligner.for_architecture(
            model.name if model.name != "abstract" else "likely", window=window
        )

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Unsupported: exhaustive search enumerates orders directly."""
        raise NotImplementedError("exhaustive search does not build chains")

    def align_procedure(self, proc: Procedure, profile: EdgeProfile) -> ProcedureLayout:
        if len(proc) > self.max_blocks:
            return self._fallback.align_procedure(proc, profile)
        rest = [bid for bid in proc.blocks if bid != proc.entry]
        best_cost = float("inf")
        best_layout: Optional[ProcedureLayout] = None
        for tail in permutations(rest):
            layout = refine_senses(proc, (proc.entry, *tail), self.model, profile)
            cost = self._layout_cost(layout, profile)
            if cost < best_cost:
                best_cost = cost
                best_layout = layout
        assert best_layout is not None
        return best_layout

    # ------------------------------------------------------------------
    def _layout_cost(self, layout: ProcedureLayout, profile: EdgeProfile) -> float:
        """Position-based modelled cost (no linking needed)."""
        proc = layout.procedure
        position = layout.position
        total = 0.0
        for idx, placement in enumerate(layout.placements):
            block = proc.block(placement.bid)
            if block.kind is TerminatorKind.COND:
                taken_edge = proc.taken_edge(block.bid)
                fall_edge = proc.fallthrough_edge(block.bid)
                assert taken_edge is not None and fall_edge is not None
                target = placement.taken_target
                other = (
                    fall_edge.dst if target == taken_edge.dst else taken_edge.dst
                )
                w_taken = profile.weight(proc.name, block.bid, target)
                w_fall = profile.weight(proc.name, block.bid, other)
                backward = position[target] <= idx
                total += self.model.cond_cost(w_fall, w_taken, backward)
                if placement.jump_target is not None:
                    total += self.model.uncond_cost(w_fall)
            elif block.kind is TerminatorKind.UNCOND:
                if not placement.branch_removed:
                    dst = proc.taken_edge(block.bid).dst  # type: ignore[union-attr]
                    total += self.model.uncond_cost(
                        profile.weight(proc.name, block.bid, dst)
                    )
            elif block.kind is TerminatorKind.FALLTHROUGH:
                if placement.jump_target is not None:
                    total += self.model.uncond_cost(
                        profile.weight(proc.name, block.bid, placement.jump_target)
                    )
        return total
