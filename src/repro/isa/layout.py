"""Layouts: concrete block placements produced by branch alignment.

A :class:`ProcedureLayout` records, for one procedure, the new block order
plus the per-block branch rewrites the layout implies:

* a conditional branch may be *inverted* so its old taken target becomes
  the fall-through;
* a conditional or fall-through block may get an *appended unconditional
  jump* when its fall-through successor is not placed next (for
  conditionals this is the paper's "align neither edge" transformation);
* an unconditional branch is *removed* when its target ends up placed
  immediately after it.

The layout is purely structural — addresses are assigned later by
:mod:`repro.isa.encoder` — and it can always be checked for semantic
preservation against the source CFG (:meth:`ProcedureLayout.check`).

:func:`layout_key` gives a layout an exact content identity: two layouts
of one program with equal keys place every block identically and link
to byte-identical images.  Aligners often agree (Greedy's two chain
orders, Try15 searched with one cost model for two architectures, an
aligner that leaves a program as it is), so everything that works per
image — replay, the oracle, the prover — does that work once per key
(:func:`layout_twins`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..cfg import BlockId, Procedure, Program, TerminatorKind


class LayoutError(ValueError):
    """Raised when a layout does not preserve the CFG's semantics."""


@dataclass(frozen=True)
class BlockPlacement:
    """One block's placement decisions within a procedure layout.

    Attributes:
        bid: The placed block.
        taken_target: For blocks that keep their own branch instruction
            (conditional, or unconditional with ``branch_removed`` False),
            the block id the branch transfers to when taken.  For an
            inverted conditional this is the original fall-through
            successor.  ``None`` for branchless placements.
        jump_target: Target block of an appended unconditional jump, or
            ``None`` when no jump was inserted.
        branch_removed: True when an unconditional branch was deleted
            because its target is placed immediately after the block.
    """

    bid: BlockId
    taken_target: Optional[BlockId] = None
    jump_target: Optional[BlockId] = None
    branch_removed: bool = False


class ProcedureLayout:
    """An ordered placement of every block of one procedure."""

    def __init__(self, procedure: Procedure, placements: Sequence[BlockPlacement]):
        self.procedure = procedure
        self.placements: Tuple[BlockPlacement, ...] = tuple(placements)
        self.position: Dict[BlockId, int] = {
            p.bid: i for i, p in enumerate(self.placements)
        }
        self.check()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_order(
        cls,
        procedure: Procedure,
        order: Sequence[BlockId],
        jump_preference: Optional[Mapping[BlockId, BlockId]] = None,
    ) -> "ProcedureLayout":
        """Derive the minimal branch rewrites implied by a block order.

        ``jump_preference`` says, for a conditional block the alignment
        decided to *seal* ("align neither edge"), which successor must be
        reached through an appended unconditional jump — the cost models
        choose the edge whose prediction profits from travelling via the
        jump, e.g. the hot self-loop edge under the FALLTHROUGH
        architecture.  The preference is honoured even when chain
        concatenation happens to place a successor adjacent, because the
        adjacent-fall-through configuration is exactly what the seal
        decision rejected; the only elision is when the jump's own target
        ends up adjacent, where falling through is equivalent and one
        instruction cheaper.  Conditional blocks without a preference get
        the minimal rewrite their adjacency implies, defaulting to a jump
        to the original fall-through successor when neither side is next.
        """
        prefs = dict(jump_preference or {})
        placements: List[BlockPlacement] = []
        order = list(order)
        for idx, bid in enumerate(order):
            block = procedure.block(bid)
            nxt = order[idx + 1] if idx + 1 < len(order) else None
            kind = block.kind
            if kind is TerminatorKind.FALLTHROUGH:
                succ = procedure.fallthrough_edge(bid).dst  # type: ignore[union-attr]
                if succ == nxt:
                    placements.append(BlockPlacement(bid))
                else:
                    placements.append(BlockPlacement(bid, jump_target=succ))
            elif kind is TerminatorKind.UNCOND:
                target = procedure.taken_edge(bid).dst  # type: ignore[union-attr]
                if target == nxt:
                    placements.append(BlockPlacement(bid, branch_removed=True))
                else:
                    placements.append(BlockPlacement(bid, taken_target=target))
            elif kind is TerminatorKind.COND:
                taken = procedure.taken_edge(bid).dst  # type: ignore[union-attr]
                fall = procedure.fallthrough_edge(bid).dst  # type: ignore[union-attr]
                via_jump = prefs.get(bid)
                if via_jump is not None and via_jump not in (taken, fall):
                    raise LayoutError(
                        f"{procedure.name}: jump preference {via_jump} is "
                        f"not a successor of block {bid}"
                    )
                if via_jump is not None and via_jump != nxt:
                    direct = taken if via_jump == fall else fall
                    placements.append(
                        BlockPlacement(bid, taken_target=direct, jump_target=via_jump)
                    )
                elif nxt == fall:
                    placements.append(BlockPlacement(bid, taken_target=taken))
                elif nxt == taken:
                    placements.append(BlockPlacement(bid, taken_target=fall))
                else:
                    placements.append(
                        BlockPlacement(bid, taken_target=taken, jump_target=fall)
                    )
            else:  # INDIRECT, RETURN — placement never rewrites these
                placements.append(BlockPlacement(bid))
        return cls(procedure, placements)

    @classmethod
    def identity(cls, procedure: Procedure) -> "ProcedureLayout":
        """The original compiler-emitted layout."""
        return cls.from_order(procedure, procedure.original_order)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify the layout preserves the procedure's control flow."""
        proc = self.procedure
        ids = [p.bid for p in self.placements]
        if sorted(ids) != sorted(proc.blocks):
            missing = sorted(set(proc.blocks) - set(ids))
            extra = sorted(set(ids) - set(proc.blocks))
            duplicated = sorted({bid for bid in ids if ids.count(bid) > 1})
            problems = []
            if missing:
                problems.append(f"missing blocks {missing}")
            if extra:
                problems.append(f"unknown blocks {extra}")
            if duplicated:
                problems.append(f"duplicated blocks {duplicated}")
            raise LayoutError(
                f"{proc.name}: layout is not a permutation of the blocks "
                f"({'; '.join(problems) or 'count mismatch'})"
            )
        if ids[0] != proc.entry:
            raise LayoutError(
                f"{proc.name}: entry block {proc.entry} must be placed "
                f"first, but block {ids[0]} is"
            )
        for idx, placement in enumerate(self.placements):
            block = proc.block(placement.bid)
            nxt = ids[idx + 1] if idx + 1 < len(ids) else None
            kind = block.kind
            if kind is TerminatorKind.FALLTHROUGH:
                succ = proc.fallthrough_edge(block.bid).dst  # type: ignore[union-attr]
                reached = placement.jump_target if placement.jump_target is not None else nxt
                if placement.taken_target is not None or placement.branch_removed:
                    raise LayoutError(
                        f"{proc.name}: bad placement for block {block.bid}: "
                        f"a fall-through block cannot carry a taken target "
                        f"or have its branch removed"
                    )
                if reached != succ:
                    raise LayoutError(
                        f"{proc.name}: block {block.bid} no longer reaches "
                        f"its successor {succ}"
                    )
            elif kind is TerminatorKind.UNCOND:
                target = proc.taken_edge(block.bid).dst  # type: ignore[union-attr]
                if placement.jump_target is not None:
                    raise LayoutError(
                        f"{proc.name}: bad placement for block {block.bid}: "
                        f"an unconditional-branch block cannot take an "
                        f"appended jump (to {placement.jump_target})"
                    )
                if placement.branch_removed:
                    if nxt != target:
                        raise LayoutError(
                            f"{proc.name}: block {block.bid} branch removed but "
                            f"target {target} not adjacent"
                        )
                elif placement.taken_target != target:
                    raise LayoutError(
                        f"{proc.name}: block {block.bid} branch retargeted"
                    )
            elif kind is TerminatorKind.COND:
                taken = proc.taken_edge(block.bid).dst  # type: ignore[union-attr]
                fall = proc.fallthrough_edge(block.bid).dst  # type: ignore[union-attr]
                if placement.branch_removed or placement.taken_target is None:
                    what = (
                        "its branch removed"
                        if placement.branch_removed
                        else "no taken target"
                    )
                    raise LayoutError(
                        f"{proc.name}: bad placement for block {block.bid}: "
                        f"a conditional block cannot have {what}"
                    )
                if placement.taken_target not in (taken, fall):
                    raise LayoutError(
                        f"{proc.name}: block {block.bid} branch retargeted"
                    )
                other = fall if placement.taken_target == taken else taken
                reached = placement.jump_target if placement.jump_target is not None else nxt
                if reached != other:
                    raise LayoutError(
                        f"{proc.name}: block {block.bid} lost successor {other}"
                    )
            else:  # INDIRECT, RETURN
                if (
                    placement.taken_target is not None
                    or placement.jump_target is not None
                    or placement.branch_removed
                ):
                    raise LayoutError(
                        f"{proc.name}: bad placement for block {block.bid}: "
                        f"{kind.value} blocks are never rewritten by layout"
                    )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    def placed_size(self, bid: BlockId) -> int:
        """Instruction count of a block after layout rewrites."""
        placement = self.placements[self.position[bid]]
        block = self.procedure.block(bid)
        size = block.size
        if placement.branch_removed:
            size -= 1
        if placement.jump_target is not None:
            size += 1
        return size

    def total_size(self) -> int:
        """Static instruction count of the laid-out procedure."""
        return sum(self.placed_size(p.bid) for p in self.placements)

    def inverted_conditionals(self) -> List[BlockId]:
        """Conditional blocks whose branch sense was flipped."""
        out = []
        for placement in self.placements:
            block = self.procedure.block(placement.bid)
            if block.kind is not TerminatorKind.COND:
                continue
            original_taken = self.procedure.taken_edge(block.bid).dst  # type: ignore[union-attr]
            if placement.taken_target != original_taken:
                out.append(block.bid)
        return out

    def inserted_jumps(self) -> List[Tuple[BlockId, BlockId]]:
        """(block, jump target) pairs for every appended jump."""
        return [
            (p.bid, p.jump_target)
            for p in self.placements
            if p.jump_target is not None
        ]

    def removed_branches(self) -> List[BlockId]:
        """Unconditional-branch blocks whose branch was deleted."""
        return [p.bid for p in self.placements if p.branch_removed]


class ProgramLayout:
    """A layout for every procedure of a program (procedure order fixed)."""

    def __init__(self, program: Program, layouts: Mapping[str, ProcedureLayout]):
        self.program = program
        missing = [name for name in program.order if name not in layouts]
        if missing:
            raise LayoutError(f"missing layouts for procedures {missing}")
        self.layouts: Dict[str, ProcedureLayout] = {
            name: layouts[name] for name in program.order
        }

    @classmethod
    def identity(cls, program: Program) -> "ProgramLayout":
        """The original layout of every procedure."""
        return cls(
            program,
            {proc.name: ProcedureLayout.identity(proc) for proc in program},
        )

    def __getitem__(self, name: str) -> ProcedureLayout:
        return self.layouts[name]

    def __iter__(self) -> Iterable[ProcedureLayout]:
        for name in self.program.order:
            yield self.layouts[name]

    def total_size(self) -> int:
        """Static instruction count of the laid-out program."""
        return sum(layout.total_size() for layout in self)


_PLACEMENT_FIELDS = attrgetter("bid", "taken_target", "jump_target", "branch_removed")


def layout_key(layout: ProgramLayout) -> bytes:
    """An exact, compact identity of every placement of ``layout``.

    Four 32-bit words per placement — the block, its taken target, its
    jump target (0 when absent) and a flag word (taken target absent,
    jump target absent, branch removed) — after each procedure's
    placement count, in procedure order; a block id that does not fit
    raises ``OverflowError``.  The encoding is injective, so layouts of
    one program have equal keys exactly when their placements are equal,
    which makes their linked images byte-identical.  Keys are compared
    by equality, never by hash alone, and hold no reference to the
    layout.
    """
    words: List[int] = []
    for proc_layout in layout:
        placements = proc_layout.placements
        words.append(len(placements))
        for bid, taken, jump, removed in map(_PLACEMENT_FIELDS, placements):
            words += (
                bid,
                0 if taken is None else taken,
                0 if jump is None else jump,
                (taken is None) | (jump is None) << 1 | removed << 2,
            )
    return array("i", words).tobytes()


def layout_twins(
    layouts: Mapping[str, ProgramLayout],
) -> Iterator[Tuple[str, ProgramLayout, Optional[str]]]:
    """Walk labelled layouts of one program in order, pairing each with
    its first earlier label of equal content.

    Yields ``(label, layout, twin)``: ``twin`` is None for the first
    label of each :func:`layout_key`, so a judge does its work there and
    relabels that verdict for every later twin.
    """
    first: Dict[bytes, str] = {}
    for label, layout in layouts.items():
        twin = first.setdefault(layout_key(layout), label)
        yield label, layout, None if twin == label else twin
