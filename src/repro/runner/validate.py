"""Invariant validation at pipeline stage boundaries.

The experiment pipeline moves data through four representations —
CFG → edge profile → layout → linked image — and each hand-off has
invariants that, when silently violated (a truncated profile file, a
buggy aligner, a stale checkpoint), produce *wrong numbers* rather than
crashes.  Profile-guided layout tools guard exactly these seams (see
Newell & Pupyrev, "Improved Basic Block Reordering", on stale/
inconsistent profiles producing bad layouts).  Each entry point below
raises :class:`~repro.runner.errors.ValidationError`, annotated with
its stage, and holds no condition of its own — every invariant is
written once, where ``repro lint`` and ``repro doctor`` check it too:

* :func:`validate_profile` (stage ``profile``) runs the lint catalog's
  ``profile-consistency`` (RL008) and ``profile-flow`` (RL009) passes;
* :func:`validate_layout` (stage ``align``) cites every
  :func:`~repro.isa.layout.layout_findings` of every procedure layout
  (RL002, RL004, RL005, RL010–RL012): the findings the four layout
  passes render and ``ProcedureLayout`` construction raises on;
* :func:`validate_linked` (stage ``link``) runs
  :func:`~repro.staticcheck.passes.check_address_map`, the RL006 check
  the ``lower-addresses`` pass runs, on the image it is handed.

CFG well-formedness needs no stage check: ``Procedure`` construction
raises on the first :func:`~repro.cfg.procedure_findings`, the findings
the RL001–RL004 passes render.  ``repro doctor BENCH`` renders the
whole lint catalog through :func:`render_invariant_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..cfg import Program, cite_finding
from ..isa.encoder import LinkedProgram
from ..isa.layout import ProgramLayout, layout_findings
from ..profiling.edge_profile import EdgeProfile
from ..staticcheck.diagnostics import Diagnostic
from ..staticcheck.passes import PASSES, LintContext, PassManager, check_address_map
from .errors import ValidationError, annotate_stage

#: The catalog passes that judge a profile against its CFG.
_PROFILE_PASSES = tuple(
    p for p in PASSES if p.pass_id in ("profile-consistency", "profile-flow")
)


@dataclass
class InvariantResult:
    """Outcome of one invariant check, one row of the doctor report."""

    name: str
    description: str
    passed: bool
    details: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _fail(stage: str, violations: Sequence[str]) -> None:
    if violations:
        exc = ValidationError("invariant violation — " + "; ".join(violations))
        raise annotate_stage(exc, stage)


def _cite(findings: Sequence[Diagnostic]) -> List[str]:
    return [f"{d.code} {d.location}: {d.message}" for d in findings]


def validate_profile(program: Program, profile: EdgeProfile) -> None:
    """Raise unless ``profile`` consistently describes ``program``."""
    report = PassManager(_PROFILE_PASSES).run(LintContext(program, profile), "profile")
    _fail("profile", _cite(report.errors))


def validate_layout(layout: ProgramLayout) -> None:
    """Raise unless every procedure layout preserves its control flow."""
    _fail("align", [
        cite_finding(proc_layout.procedure.name, finding)
        for proc_layout in layout
        for finding in layout_findings(proc_layout)
    ])


def validate_linked(linked: LinkedProgram) -> None:
    """Raise unless the linked image's address map is sound."""
    _fail("link", _cite(check_address_map(linked)))


def render_invariant_report(results: Sequence[InvariantResult]) -> str:
    """The ``repro doctor`` PASS/FAIL report."""
    width = max(len(r.name) for r in results) if results else 0
    lines = []
    for result in results:
        lines.append(f"{result.status:<4}  {result.name:<{width}}  {result.description}")
        for detail in result.details:
            lines.append(f"      - {detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} invariants hold"
        + (f" — {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
