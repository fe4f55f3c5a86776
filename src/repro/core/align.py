"""Top-level alignment orchestration and the aligner base class."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar, cast

from ..cfg import BlockId, EdgeKind, Procedure, Program
from ..isa.layout import ProcedureLayout, ProgramLayout
from ..profiling.edge_profile import EdgeProfile
from .chains import ChainSet
from .layout_order import order_chains
from .refine import refine_senses

T = TypeVar("T")


@dataclass
class _ChainBuild:
    """One procedure's chains and the orders laid out."""

    chains: ChainSet
    #: chain-order strategy -> block order, filled as variants ask.
    orders: Dict[str, List[BlockId]] = field(default_factory=dict)


@dataclass
class _Shared:
    """A shared result and the references its key stands for."""

    proc: Procedure
    profile: EdgeProfile
    value: object
    #: Reads still expected before the entry is dropped.
    readers: int


class PlanShare:
    """Per-procedure work that the aligners of one registry plan do alike.

    A registry factory joins the variants it plans, naming for each the
    *group* of variants that build identical chains and differ only
    after chain building (chain order, refinement model).  A group's
    chain set is built by the first member that aligns a procedure and
    handed to the others; inputs every build reads alike (TryN's
    cyclic-edge set and window partition) are computed once per
    procedure for all of them.

    An entry is dropped once every expected reader has had it, so nothing
    outlives the plan and a one-variant plan keeps nothing.  Entries are
    keyed by the procedure and profile objects and keep references to
    them, so an id in a live key cannot be reused by another object.
    """

    def __init__(self) -> None:
        self._members: Dict[str, int] = {}
        self._entries: Dict[Tuple[Hashable, int, int], _Shared] = {}

    def join(self, aligner: "Aligner", group: str) -> None:
        """Add ``aligner`` to the plan; ``group`` names its chain build."""
        aligner._share = self
        aligner._share_group = group
        self._members[group] = self._members.get(group, 0) + 1

    def members(self, group: str) -> int:
        """How many joined aligners build ``group``'s chains."""
        return self._members.get(group, 0)

    @property
    def builds(self) -> int:
        """Distinct chain builds among the joined aligners."""
        return len(self._members)

    def reuse(
        self,
        key: Hashable,
        readers: int,
        proc: Procedure,
        profile: EdgeProfile,
        compute: Callable[[], T],
    ) -> T:
        """``compute()`` for the first of ``readers`` asking, else its result."""
        if readers < 2:
            return compute()
        slot = (key, id(proc), id(profile))
        entry = self._entries.get(slot)
        if entry is None:
            value = compute()
            self._entries[slot] = _Shared(proc, profile, value, readers - 1)
            return value
        entry.readers -= 1
        if not entry.readers:
            del self._entries[slot]
        return cast(T, entry.value)


class Aligner:
    """Base class for branch alignment algorithms.

    Subclasses implement :meth:`build_chains`, returning the chain
    structure.  The base class orders the chains with the configured
    strategy and lays each procedure out once: by the order's adjacency
    (:meth:`ProcedureLayout.from_order`), or, for a model-driven aligner,
    by :func:`~repro.core.refine.refine_senses`, which also picks every
    conditional's sense and jump under the model.
    """

    #: Report name ("greedy", "cost", "try15", ...).
    name: str = "abstract"
    #: Chain concatenation strategy: "weight" or "btfnt" (section 6.1).
    chain_order: str = "weight"
    #: Architecture cost model, when the algorithm is cost-driven.  A
    #: model-driven aligner gets the position-exact sense refinement pass
    #: after chain ordering (see :mod:`repro.core.refine`); the
    #: architecture-blind Greedy algorithm does not, matching the paper.
    model = None
    #: Optional distinct model for the sense-refinement pass.  Used by the
    #: BT/FNT alignment, where chain formation cannot know final branch
    #: directions ("it is not known where the taken branch will be
    #: located", section 6) and therefore searches with a
    #: direction-optimistic model, refining with the true BT/FNT costs
    #: once positions are fixed.
    refine_model = None
    #: The plan this aligner shares chain builds with (see PlanShare).
    _share: Optional[PlanShare] = None
    _share_group: str = ""

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Build the chain structure of one procedure."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def align_procedure(self, proc: Procedure, profile: EdgeProfile) -> ProcedureLayout:
        """Align one procedure, producing a checked layout."""
        share = self._share
        if share is None:
            build = self._build(proc, profile)
        else:
            group = self._share_group
            build = share.reuse(
                ("chains", group), share.members(group), proc, profile,
                lambda: self._build(proc, profile),
            )
        order = build.orders.get(self.chain_order)
        if order is None:
            order = order_chains(build.chains, profile, self.chain_order)
            build.orders[self.chain_order] = order
        refine_with = self.refine_model or self.model
        if refine_with is None:
            return ProcedureLayout.from_order(proc, order)
        return refine_senses(proc, order, refine_with, profile)

    def _build(self, proc: Procedure, profile: EdgeProfile) -> _ChainBuild:
        chains = self.build_chains(proc, profile)
        chains.check()
        return _ChainBuild(chains)

    def align(self, program: Program, profile: EdgeProfile) -> ProgramLayout:
        """Align every procedure of a program (procedure order unchanged)."""
        layouts = {
            proc.name: self.align_procedure(proc, profile) for proc in program
        }
        return ProgramLayout(program, layouts)


class OriginalAligner(Aligner):
    """The no-op aligner: the compiler's original layout."""

    name = "orig"

    def align(self, program: Program, profile: EdgeProfile) -> ProgramLayout:
        return ProgramLayout.identity(program)

    def align_procedure(self, proc: Procedure, profile: EdgeProfile) -> ProcedureLayout:
        return ProcedureLayout.identity(proc)

    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Unsupported: the original layout has no chain structure."""
        raise NotImplementedError("the original layout has no chains")


def align_program(
    program: Program, profile: EdgeProfile, aligner: Aligner
) -> ProgramLayout:
    """Convenience wrapper: ``aligner.align(program, profile)``."""
    return aligner.align(program, profile)


#: The edge kinds alignment may turn into a fall-through.
_ALIGNABLE_EDGES = (EdgeKind.FALLTHROUGH, EdgeKind.TAKEN)


def greedy_link_pass(
    chains: ChainSet,
    proc: Procedure,
    profile: EdgeProfile,
    min_weight: int = 0,
) -> None:
    """Link remaining edges in weight order wherever feasible.

    Shared by all aligners as the final pass that threads cold blocks into
    chains: it never changes the modelled cost of hot branches (those are
    already decided) but improves adjacency, mirroring Pettis–Hansen's
    processing of every edge.
    """
    for (src, dst), _w in profile.sorted_edges(proc, min_weight=min_weight):
        if chains.can_link(src, dst):
            chains._join(src, dst)
    # Edges that never executed are absent from the profile entirely;
    # sweep the static CFG so completely-cold regions still chain up.
    for edge in proc.edges:
        if edge.kind in _ALIGNABLE_EDGES and chains.can_link(edge.src, edge.dst):
            chains._join(edge.src, edge.dst)
