"""Synthetic ISA, layout engine and address encoder."""

from .diff import ProcedureDiff, diff_layouts, diff_procedure_layouts, render_diff
from .encoder import INSTRUCTION_BYTES, LinkedBlock, LinkedProgram, TEXT_BASE, link, link_identity
from .instructions import Instruction, Opcode
from .layout import (
    BlockPlacement,
    LayoutError,
    ProcedureLayout,
    ProgramLayout,
    layout_key,
    layout_twins,
)
from .serialize import (
    LayoutFormatError,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    save_layout,
)

__all__ = [
    "BlockPlacement",
    "INSTRUCTION_BYTES",
    "Instruction",
    "LayoutError",
    "LayoutFormatError",
    "LinkedBlock",
    "LinkedProgram",
    "Opcode",
    "ProcedureDiff",
    "ProcedureLayout",
    "ProgramLayout",
    "TEXT_BASE",
    "diff_layouts",
    "diff_procedure_layouts",
    "layout_from_dict",
    "layout_key",
    "layout_to_dict",
    "layout_twins",
    "link",
    "link_identity",
    "load_layout",
    "render_diff",
    "save_layout",
]
