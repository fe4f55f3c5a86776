"""Differential layout oracle: prove aligned binaries replay the
original dynamic instruction stream (see :mod:`repro.oracle.oracle`)."""

from .oracle import (
    MAX_DIVERGENCES,
    BlockRef,
    Divergence,
    OracleReport,
    alignment_layouts,
    verify_alignments,
    verify_layout,
)
from .report import render_oracle_reports, summarize_failures

__all__ = [
    "BlockRef",
    "Divergence",
    "MAX_DIVERGENCES",
    "OracleReport",
    "alignment_layouts",
    "render_oracle_reports",
    "summarize_failures",
    "verify_alignments",
    "verify_layout",
]
