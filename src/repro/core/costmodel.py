"""Architectural branch cost models (Table 1 and section 6 of the paper).

Table 1 assigns each executed branch a cost in cycles, including the cycle
of the branch instruction itself:

====================================  =========================
Unconditional branch                  2  (instruction + misfetch)
Correctly predicted fall-through      1  (instruction)
Correctly predicted taken             2  (instruction + misfetch)
Mispredicted                          5  (instruction + mispredict)
====================================  =========================

What "correctly predicted" means depends on the branch architecture, so
each architecture gets its own :class:`ArchModel`:

* ``FALLTHROUGH`` — always predicts the fall-through path, so every taken
  conditional is mispredicted.
* ``BT/FNT`` — predicts backward branches taken, forward not taken; which
  way a branch points depends on the final layout, approximated during
  alignment by loop-retreating edges.
* ``LIKELY`` — a profile-set likely bit predicts the majority direction.
* ``PHT`` — dynamic direction prediction; the paper's alignment cost model
  assumes conditionals mispredict 10% of the time, with taken branches
  still paying the misfetch.
* ``BTB`` — additionally assumes a 10% BTB miss rate, so taken branches
  (conditional or not) pay the misfetch only 10% of the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..cfg import Procedure, TerminatorKind
from ..isa.encoder import LinkedProgram
from ..profiling.condmix import stationary_two_bit_rates
from ..profiling.edge_profile import EdgeProfile

__all__ = [
    "ArchModel",
    "BTBModel",
    "BTFNTModel",
    "BranchCosts",
    "DEFAULT_COSTS",
    "FallthroughModel",
    "LikelyModel",
    "MODELS",
    "PHTModel",
    "make_model",
    "stationary_two_bit_rates",
]


@dataclass(frozen=True)
class BranchCosts:
    """The primitive cycle costs of Table 1 / section 6."""

    instruction: float = 1.0
    misfetch: float = 1.0
    mispredict: float = 4.0

    @property
    def correct_fallthrough(self) -> float:
        return self.instruction

    @property
    def correct_taken(self) -> float:
        return self.instruction + self.misfetch

    @property
    def mispredicted(self) -> float:
        return self.instruction + self.mispredict

    @property
    def unconditional(self) -> float:
        return self.instruction + self.misfetch


#: The paper's cost table.
DEFAULT_COSTS = BranchCosts()


class ArchModel:
    """Expected branch cost under one branch-prediction architecture.

    Subclasses define :meth:`cond_cost`.  All costs are *expected cycles
    per the paper's Table 1*, i.e. they include the branch instruction
    itself, so layouts can be compared by total modelled cycles (as the
    paper does for Figure 3).
    """

    #: Short name used in reports ("fallthrough", "btfnt", ...).
    name: str = "abstract"
    #: Whether :meth:`cond_cost` consults the taken-target direction.
    uses_direction: bool = False

    def __init__(self, costs: BranchCosts = DEFAULT_COSTS):
        self.costs = costs

    # -- primitive costs ------------------------------------------------
    def uncond_cost(self, weight: float) -> float:
        """Cost of executing an unconditional branch ``weight`` times."""
        return weight * self.costs.unconditional

    # -- conditional configurations -------------------------------------
    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        """Cost of a conditional whose fall-through side runs ``w_fall``
        times and taken side ``w_taken`` times; ``taken_backward`` says
        whether the taken target lies at a lower address."""
        raise NotImplementedError

    def cond_neither_cost(
        self, w_via_jump: float, w_taken: float, taken_backward: bool
    ) -> float:
        """Cost of the "align neither" configuration.

        The conditional's fall-through leads to an appended unconditional
        jump (traversed ``w_via_jump`` times); the conditional's taken edge
        handles the other successor.  This is the transformation that turns
        a self-loop's 5-cycle mispredict into 3 cycles under FALLTHROUGH
        (section 4, Cost algorithm discussion).
        """
        return self.cond_cost(w_via_jump, w_taken, taken_backward) + self.uncond_cost(
            w_via_jump
        )

    def single_exit_costs(self, weight: float) -> Tuple[float, float]:
        """(linked, unlinked) costs for a single-exit block.

        Linked means the successor is the layout fall-through (an
        unconditional branch is deleted / none is needed): cost 0.
        Unlinked means an unconditional branch reaches the successor.
        """
        return 0.0, self.uncond_cost(weight)

    # -- whole-layout evaluation -----------------------------------------
    def layout_cost(self, linked: LinkedProgram, profile: EdgeProfile) -> float:
        """Total modelled branch cost of a linked binary under a profile.

        Walks every placed block and charges Table 1 costs using the
        *actual* layout adjacency and branch directions (real addresses),
        making alignment algorithms directly comparable.
        """
        total = 0.0
        for proc in linked.program:
            total += self.procedure_cost(linked, proc, profile)
        return total

    def procedure_cost(
        self, linked: LinkedProgram, proc: Procedure, profile: EdgeProfile
    ) -> float:
        """Modelled branch cost of one procedure within a linked binary."""
        total = 0.0
        layout = linked.layout[proc.name]
        for placement in layout.placements:
            block = proc.block(placement.bid)
            kind = block.kind
            if kind is TerminatorKind.COND:
                taken_edge = proc.taken_edge(block.bid)
                fall_edge = proc.fallthrough_edge(block.bid)
                assert taken_edge is not None and fall_edge is not None
                target = placement.taken_target
                other = (
                    fall_edge.dst if target == taken_edge.dst else taken_edge.dst
                )
                w_taken = profile.weight(proc.name, block.bid, target)
                w_fall = profile.weight(proc.name, block.bid, other)
                lb = linked.block(proc.name, block.bid)
                backward = (
                    linked.block_address(proc.name, target) < lb.term_address
                    if lb.term_address is not None
                    else False
                )
                total += self.cond_cost(w_fall, w_taken, backward)
                if placement.jump_target is not None:
                    total += self.uncond_cost(w_fall)
            elif kind is TerminatorKind.UNCOND:
                if not placement.branch_removed:
                    dst = proc.taken_edge(block.bid).dst  # type: ignore[union-attr]
                    total += self.uncond_cost(
                        profile.weight(proc.name, block.bid, dst)
                    )
            elif kind is TerminatorKind.FALLTHROUGH:
                if placement.jump_target is not None:
                    total += self.uncond_cost(
                        profile.weight(proc.name, block.bid, placement.jump_target)
                    )
            # INDIRECT and RETURN blocks cost the same under every layout.
        return total


class FallthroughModel(ArchModel):
    """Always predicts the fall-through path (section 3, FALLTHROUGH)."""

    name = "fallthrough"

    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        return w_fall * self.costs.correct_fallthrough + w_taken * self.costs.mispredicted


class BTFNTModel(ArchModel):
    """Backward taken, forward not taken (HP PA-RISC, Alpha AXP 21064)."""

    name = "btfnt"
    uses_direction = True

    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        if taken_backward:
            return w_taken * self.costs.correct_taken + w_fall * self.costs.mispredicted
        return w_fall * self.costs.correct_fallthrough + w_taken * self.costs.mispredicted


class LikelyModel(ArchModel):
    """Profile-set likely bit predicts the majority direction (Tera)."""

    name = "likely"

    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        if w_taken > w_fall:
            return w_taken * self.costs.correct_taken + w_fall * self.costs.mispredicted
        return w_fall * self.costs.correct_fallthrough + w_taken * self.costs.mispredicted


class PHTModel(ArchModel):
    """Dynamic direction prediction with an assumed 10% mispredict rate."""

    name = "pht"

    def __init__(self, costs: BranchCosts = DEFAULT_COSTS, mispredict_rate: float = 0.10):
        super().__init__(costs)
        if not 0.0 <= mispredict_rate <= 1.0:
            raise ValueError(f"bad mispredict rate {mispredict_rate}")
        self.mispredict_rate = mispredict_rate

    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        hit = 1.0 - self.mispredict_rate
        correct = (
            w_fall * self.costs.correct_fallthrough + w_taken * self.costs.correct_taken
        )
        return hit * correct + self.mispredict_rate * (w_fall + w_taken) * self.costs.mispredicted


class BTBModel(ArchModel):
    """BTB cost model: 10% mispredict and 10% BTB miss (section 6).

    A taken branch found in the BTB causes no misfetch, so taken branches
    (conditional or unconditional) pay the misfetch only on the assumed
    miss rate.
    """

    name = "btb"

    def __init__(
        self,
        costs: BranchCosts = DEFAULT_COSTS,
        mispredict_rate: float = 0.10,
        miss_rate: float = 0.10,
    ):
        super().__init__(costs)
        if not 0.0 <= mispredict_rate <= 1.0 or not 0.0 <= miss_rate <= 1.0:
            raise ValueError("rates must be in [0, 1]")
        self.mispredict_rate = mispredict_rate
        self.miss_rate = miss_rate

    def _taken_cost(self) -> float:
        return self.costs.instruction + self.miss_rate * self.costs.misfetch

    def uncond_cost(self, weight: float) -> float:
        return weight * self._taken_cost()

    def cond_cost(self, w_fall: float, w_taken: float, taken_backward: bool) -> float:
        hit = 1.0 - self.mispredict_rate
        correct = w_fall * self.costs.correct_fallthrough + w_taken * self._taken_cost()
        return hit * correct + self.mispredict_rate * (w_fall + w_taken) * self.costs.mispredicted


#: Factory registry: model name -> constructor.
MODELS = {
    "fallthrough": FallthroughModel,
    "btfnt": BTFNTModel,
    "likely": LikelyModel,
    "pht": PHTModel,
    "btb": BTBModel,
}


def make_model(name: str, costs: BranchCosts = DEFAULT_COSTS) -> ArchModel:
    """Instantiate an architecture cost model by name."""
    try:
        return MODELS[name](costs)
    except KeyError:
        raise ValueError(f"unknown architecture model {name!r}; pick from {sorted(MODELS)}")
