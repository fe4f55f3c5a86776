"""Address assignment: turning a layout into a linked binary image.

The encoder walks procedures in link order (never reordered, matching the
paper) and the blocks of each procedure in layout order, assigning 4-byte
addresses to every instruction.  The result, a :class:`LinkedProgram`,
gives each branch a concrete *site* address and *target* address — the
inputs the BT/FNT direction test, the PHT/gshare index and the BTB tags
all consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cfg import BlockId, Program, TerminatorKind
from .instructions import INSTRUCTION_BYTES, Instruction, Opcode
from .layout import BlockPlacement, LayoutError, ProgramLayout

#: Base address of the text segment (arbitrary, Alpha-flavoured).
TEXT_BASE = 0x120000000


@dataclass(frozen=True)
class LinkedBlock:
    """A placed block with concrete addresses.

    Attributes:
        bid: Block id within its procedure.
        start: Address of the block's first instruction.
        size: Placed instruction count (after branch insertion/removal).
        term_address: Address of the block's own terminator branch, or
            ``None`` when the block has none (fall-through blocks,
            removed unconditional branches).
        jump_address: Address of the appended unconditional jump, if any.
        placement: The structural placement this block realises.
    """

    bid: BlockId
    start: int
    size: int
    term_address: Optional[int]
    jump_address: Optional[int]
    placement: BlockPlacement

    @property
    def end(self) -> int:
        """Address one past the block's last instruction."""
        return self.start + self.size * INSTRUCTION_BYTES

    def call_address(self, offset: int) -> int:
        """Address of the call instruction at straight-line ``offset``."""
        return self.start + offset * INSTRUCTION_BYTES


class LinkedProgram:
    """A fully addressed binary image of a program under a given layout."""

    def __init__(self, layout: ProgramLayout):
        self.layout = layout
        self.program = layout.program
        self.blocks: Dict[str, Dict[BlockId, LinkedBlock]] = {}
        self.proc_start: Dict[str, int] = {}
        address = TEXT_BASE
        for proc in self.program:
            proc_layout = layout[proc.name]
            linked: Dict[BlockId, LinkedBlock] = {}
            self.proc_start[proc.name] = address
            for placement in proc_layout.placements:
                block = proc.block(placement.bid)
                size = proc_layout.placed_size(placement.bid)
                straight = block.straightline_size
                term_addr: Optional[int] = None
                jump_addr: Optional[int] = None
                cursor = address + straight * INSTRUCTION_BYTES
                keeps_terminator = (
                    block.kind.has_branch_instruction and not placement.branch_removed
                )
                if keeps_terminator:
                    term_addr = cursor
                    cursor += INSTRUCTION_BYTES
                if placement.jump_target is not None:
                    jump_addr = cursor
                    cursor += INSTRUCTION_BYTES
                linked[placement.bid] = LinkedBlock(
                    bid=placement.bid,
                    start=address,
                    size=size,
                    term_address=term_addr,
                    jump_address=jump_addr,
                    placement=placement,
                )
                address += size * INSTRUCTION_BYTES
            self.blocks[proc.name] = linked
        self.text_end = address

    # ------------------------------------------------------------------
    def block(self, proc_name: str, bid: BlockId) -> LinkedBlock:
        """The addressed block ``bid`` of procedure ``proc_name``."""
        return self.blocks[proc_name][bid]

    def block_address(self, proc_name: str, bid: BlockId) -> int:
        """Start address of a block."""
        return self.blocks[proc_name][bid].start

    def entry_address(self, proc_name: str) -> int:
        """Address of a procedure's entry point."""
        proc = self.program.procedure(proc_name)
        return self.block_address(proc_name, proc.entry)

    def total_size(self) -> int:
        """Static instruction count of the linked image."""
        return (self.text_end - TEXT_BASE) // INSTRUCTION_BYTES

    # ------------------------------------------------------------------
    def disassemble(self, proc_name: Optional[str] = None) -> List[Instruction]:
        """Produce a readable instruction listing of the linked image.

        Intended for examples, debugging and golden tests; the simulator
        itself never materialises instruction objects.
        """
        names = [proc_name] if proc_name else list(self.program.order)
        out: List[Instruction] = []
        for name in names:
            proc = self.program.procedure(name)
            proc_layout = self.layout[name]
            for placement in proc_layout.placements:
                block = proc.block(placement.bid)
                linked = self.blocks[name][placement.bid]
                call_by_offset = {c.offset: c for c in block.calls}
                for offset in range(block.straightline_size):
                    addr = linked.start + offset * INSTRUCTION_BYTES
                    call = call_by_offset.get(offset)
                    if call is None:
                        out.append(Instruction(addr, Opcode.OP))
                    elif call.callee is not None:
                        out.append(
                            Instruction(
                                addr,
                                Opcode.CALL,
                                target=self.entry_address(call.callee),
                                comment=f"call {call.callee}",
                            )
                        )
                    else:
                        out.append(
                            Instruction(addr, Opcode.INDIRECT_CALL, comment="icall")
                        )
                if linked.term_address is not None:
                    out.append(self._terminator(name, block.kind, linked))
                if linked.jump_address is not None:
                    target = self._target_address(
                        name, placement.bid, placement.jump_target, "an appended jump"
                    )
                    out.append(
                        Instruction(
                            linked.jump_address,
                            Opcode.UNCOND_BRANCH,
                            target=target,
                            comment="inserted by alignment",
                        )
                    )
        return out

    def _target_address(
        self, proc_name: str, bid: BlockId, target: Optional[BlockId], what: str
    ) -> int:
        """Address of a branch's target block, which must be in its procedure."""
        placed = self.blocks[proc_name]
        if target is None or target not in placed:
            raise LayoutError(
                f"{proc_name}: block {bid} has {what} with no target block "
                f"in the procedure (target {target})"
            )
        return placed[target].start

    def _terminator(self, proc_name: str, kind: TerminatorKind, linked: LinkedBlock) -> Instruction:
        assert linked.term_address is not None
        if kind in (TerminatorKind.COND, TerminatorKind.UNCOND):
            target = self._target_address(
                proc_name, linked.bid, linked.placement.taken_target, "a kept branch"
            )
            opcode = (
                Opcode.COND_BRANCH if kind is TerminatorKind.COND else Opcode.UNCOND_BRANCH
            )
            return Instruction(linked.term_address, opcode, target=target)
        if kind is TerminatorKind.INDIRECT:
            return Instruction(linked.term_address, Opcode.INDIRECT_JUMP)
        if kind is TerminatorKind.RETURN:
            return Instruction(linked.term_address, Opcode.RETURN)
        raise AssertionError(f"no terminator for {kind}")


def link(layout: ProgramLayout) -> LinkedProgram:
    """Assign addresses to a layout, producing a linked binary image."""
    return LinkedProgram(layout)


def link_identity(program: Program) -> LinkedProgram:
    """Link a program in its original layout."""
    return LinkedProgram(ProgramLayout.identity(program))
