"""Basic blocks, edges and terminator kinds for the control-flow graph.

The CFG model follows the paper's terminology (section 4):

* An *unconditional branch* block has a single out-going taken edge.
* A *conditional* block has two edges, the taken and the fall-through edge.
* A *fall-through* block has a single out-going fall-through edge.
* Blocks ending in indirect jumps or returns terminate control flow within
  the procedure; their edges (if any) are never considered by alignment.

Procedure calls do **not** terminate basic blocks: a call transfers control
to the callee and control returns to the following instruction, so a call is
modelled as a :class:`CallSite` embedded in a block.  This matches the
paper, which gives call and return edges a weight of zero and ignores them
when aligning branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Type alias for basic-block identifiers (stable across re-layout).
BlockId = int


class TerminatorKind(enum.Enum):
    """How a basic block ends."""

    #: No branch instruction; control falls into the (single) successor.
    FALLTHROUGH = "fallthrough"
    #: Conditional direct branch: a taken edge and a fall-through edge.
    COND = "cond"
    #: Unconditional direct branch: a single taken edge.
    UNCOND = "uncond"
    #: Indirect jump (e.g. a switch table): one or more target edges.
    INDIRECT = "indirect"
    #: Procedure return: no intra-procedural successors.
    RETURN = "return"

    @property
    def has_branch_instruction(self) -> bool:
        """True if the block's final instruction is a control transfer."""
        return self is not TerminatorKind.FALLTHROUGH

    @property
    def alignable(self) -> bool:
        """True if branch alignment may choose this block's layout successor.

        Only blocks with an out-degree of one or two through direct edges
        participate in alignment (paper section 4); indirect jumps and
        returns are ignored.
        """
        return self in (
            TerminatorKind.FALLTHROUGH,
            TerminatorKind.COND,
            TerminatorKind.UNCOND,
        )


class EdgeKind(enum.Enum):
    """The static role of a CFG edge in the *original* program layout."""

    #: The not-taken side of a conditional branch, or the single successor
    #: of a fall-through block.
    FALLTHROUGH = "fallthrough"
    #: The target of a taken conditional or unconditional branch.
    TAKEN = "taken"
    #: One possible target of an indirect jump.
    INDIRECT = "indirect"


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge between two blocks of the same procedure."""

    src: BlockId
    dst: BlockId
    kind: EdgeKind

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.src}->{self.dst}[{self.kind.value}]"


@dataclass
class CallSite:
    """A call instruction embedded in a basic block.

    ``offset`` is the instruction index of the call within the block
    (0-based, counted over the block's non-terminator instructions).
    ``callee`` names the target procedure for a direct call; an indirect
    call (C++ virtual dispatch) leaves ``callee`` as ``None`` and supplies a
    ``chooser`` behaviour that picks the callee at execution time.
    """

    offset: int
    callee: Optional[str] = None
    chooser: Optional[Any] = None

    @property
    def is_indirect(self) -> bool:
        return self.callee is None

    def validate(self, block_size: int, has_terminator: bool) -> None:
        """Raise :class:`ValueError` if the call site cannot fit the block."""
        last_plain = block_size - (1 if has_terminator else 0)
        if not 0 <= self.offset < last_plain:
            raise ValueError(
                f"call site offset {self.offset} out of range for block of "
                f"size {block_size} (terminator={has_terminator})"
            )
        if self.callee is None and self.chooser is None:
            raise ValueError("indirect call site requires a chooser")


@dataclass
class BasicBlock:
    """A basic block: a run of instructions ending in at most one branch.

    Attributes:
        bid: Stable identifier, unique within the enclosing procedure.
            Identifiers survive re-layout, which lets edge profiles gathered
            on the original binary drive the alignment of a rewritten one.
        size: Number of instructions in the block, *including* the
            terminator branch when ``kind.has_branch_instruction``.
        kind: The terminator kind.
        calls: Call sites embedded in the block, in instruction order.
        behavior: Optional behaviour object (see :mod:`repro.sim.behaviors`)
            used by the executor to choose the dynamic successor of a
            conditional or indirect terminator.  The CFG layer treats it as
            opaque.
        label: Optional human-readable label for figures and debugging.
    """

    bid: BlockId
    size: int
    kind: TerminatorKind = TerminatorKind.FALLTHROUGH
    calls: List[CallSite] = field(default_factory=list)
    behavior: Any = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"block {self.bid}: size must be >= 1, got {self.size}")
        min_size = len(self.calls) + (1 if self.kind.has_branch_instruction else 0)
        if self.size < max(min_size, 1):
            raise ValueError(
                f"block {self.bid}: size {self.size} too small for "
                f"{len(self.calls)} call sites and kind {self.kind.value}"
            )
        for call in self.calls:
            call.validate(self.size, self.kind.has_branch_instruction)
        offsets = [c.offset for c in self.calls]
        if len(set(offsets)) != len(offsets):
            raise ValueError(f"block {self.bid}: duplicate call-site offsets")
        if offsets != sorted(offsets):
            raise ValueError(f"block {self.bid}: call sites must be offset-ordered")

    @property
    def straightline_size(self) -> int:
        """Number of non-terminator instructions in the block."""
        return self.size - (1 if self.kind.has_branch_instruction else 0)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        name = self.label or f"B{self.bid}"
        return f"{name}({self.size},{self.kind.value})"


#: The out-edge kinds of each terminator kind, sorted by value.  A block
#: has exactly these, except that an indirect jump has one or more
#: INDIRECT edges.
OUT_EDGE_KINDS: Dict[TerminatorKind, Tuple[EdgeKind, ...]] = {
    TerminatorKind.FALLTHROUGH: (EdgeKind.FALLTHROUGH,),
    TerminatorKind.COND: (EdgeKind.FALLTHROUGH, EdgeKind.TAKEN),
    TerminatorKind.UNCOND: (EdgeKind.TAKEN,),
    TerminatorKind.INDIRECT: (EdgeKind.INDIRECT,),
    TerminatorKind.RETURN: (),
}
