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

from ..cfg import BlockId, EdgeKind, Finding, Procedure, Program, TerminatorKind, cite_finding

#: Enum members bound once: :func:`layout_findings` runs on every layout
#: construction, and looking members up on their class doubles its time.
_FALLTHROUGH, _COND, _UNCOND = (
    TerminatorKind.FALLTHROUGH, TerminatorKind.COND, TerminatorKind.UNCOND
)
_FALL_EDGE, _TAKEN_EDGE = EdgeKind.FALLTHROUGH, EdgeKind.TAKEN


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
        """Raise :class:`LayoutError` on the first :func:`layout_findings`."""
        for finding in layout_findings(self):
            raise LayoutError(cite_finding(self.procedure.name, finding))

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


def _cannot(bid: BlockId, kind: TerminatorKind, what: str) -> Finding:
    return "RL012", bid, f"{kind.value} block cannot {what}"


def _falls_off(bid: BlockId, successor: BlockId, nxt: Optional[BlockId]) -> Finding:
    return "RL005", bid, f"fall-through successor {successor} is not the next placed block ({nxt})"


def _mistarget(
    bid: BlockId,
    role: str,
    target: Optional[BlockId],
    allowed: Sequence[BlockId],
    blocks: Mapping[BlockId, object],
) -> Finding:
    """The finding for a transfer of ``bid`` that misses ``allowed``."""
    if target not in blocks:
        return "RL004", bid, f"{role} targets unknown block {target}"
    return "RL012", bid, f"{role} retargeted at block {target}; CFG allows {sorted(set(allowed))}"


def layout_findings(layout: ProcedureLayout) -> Iterator[Finding]:
    """Every way ``layout`` fails to preserve its procedure's control flow.

    * RL011/RL002: the placements are a permutation of the blocks, the
      entry first;
    * RL005: a successor reached by falling through is placed next;
    * RL010: a conditional's branch and continuation (its appended jump,
      else the next block) reach its two successors;
    * RL012/RL004: each kept branch and appended jump targets the CFG
      successor it stands for (RL004 when the target, ``None`` included,
      is no block), and no placement sets a field its block's kind
      cannot carry (RL012): a taken target on a fall-through, indirect
      or return block, an appended jump on an unconditional, indirect or
      return block, a removed branch on any block but an unconditional.

    Successors come from the procedure's out-edges; a block whose edges
    are missing is left to :func:`~repro.cfg.procedure_findings`, so a
    layout or procedure assembled behind the constructors' backs is
    judged, not crashed on.  Construction raises on the first finding;
    ``repro lint``'s layout passes render them all.
    """
    proc = layout.procedure
    blocks = proc.blocks
    placements = layout.placements
    ids = [placement.bid for placement in placements]
    placed = set(ids)
    if len(ids) != len(blocks) or placed != blocks.keys():
        parts = []
        for words, bids in (
            ("missing", blocks.keys() - placed),
            ("unknown", placed - blocks.keys()),
            ("duplicated", {bid for bid in placed if ids.count(bid) > 1}),
        ):
            if bids:
                parts.append(f"{words} {sorted(bids)}")
        yield "RL011", None, (
            "layout is not a permutation of the procedure's blocks"
            + (f" ({', '.join(parts)})" if parts else "")
        )
    elif proc.original_order and ids[0] != proc.original_order[0]:
        entry = proc.original_order[0]
        yield "RL002", entry, f"entry block {entry} not placed first"

    out_edges = proc.out_edges
    for placement, nxt in zip(placements, ids[1:] + [None]):
        bid = placement.bid
        block = blocks.get(bid)
        if block is None:
            continue  # RL011
        kind = block.kind
        target, jump = placement.taken_target, placement.jump_target
        removed = placement.branch_removed
        taken: Optional[BlockId] = None
        fall: Optional[BlockId] = None
        for edge in out_edges(bid):
            if edge.kind is _TAKEN_EDGE:
                taken = edge.dst
            elif edge.kind is _FALL_EDGE:
                fall = edge.dst
        if kind is _FALLTHROUGH:
            if target is not None:
                yield _cannot(bid, kind, "carry a taken target")
            if removed:
                yield _cannot(bid, kind, "have its branch removed")
            if fall is None:
                continue
            if jump is None and nxt != fall:
                yield _falls_off(bid, fall, nxt)
            elif jump is not None and jump != fall:
                yield _mistarget(bid, "appended jump", jump, (fall,), blocks)
        elif kind is _COND:
            if removed:
                yield _cannot(bid, kind, "have its branch removed")
            if taken is None or fall is None:
                continue
            allowed = (taken, fall)
            if target not in allowed:
                yield _mistarget(bid, "conditional branch", target, allowed, blocks)
            if jump is not None and jump not in allowed:
                yield _mistarget(bid, "appended jump", jump, allowed, blocks)
            if target in allowed:
                other = fall if target == taken else taken
                reached = nxt if jump is None else jump
                if reached != other:
                    if jump is None:
                        yield _falls_off(bid, other, nxt)
                    yield "RL010", bid, (
                        f"as placed, branch covers targets {{{target}, {reached}}} "
                        f"instead of successors {{{taken}, {fall}}} — the sense flip "
                        f"is not invertible"
                    )
        elif kind is _UNCOND:
            if jump is not None:
                yield _cannot(bid, kind, "carry an appended jump")
            if taken is None:
                continue
            if removed and nxt != taken:
                yield _falls_off(bid, taken, nxt)
            elif not removed and target != taken:
                yield _mistarget(bid, "unconditional branch", target, (taken,), blocks)
        else:  # indirect jumps and returns are never rewritten
            if target is not None:
                yield _cannot(bid, kind, "carry a taken target")
            if jump is not None:
                yield _cannot(bid, kind, "carry an appended jump")
            if removed:
                yield _cannot(bid, kind, "have its branch removed")


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
