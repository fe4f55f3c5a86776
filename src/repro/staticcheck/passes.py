"""Verifier passes over CFGs, profiles and lowered layouts.

Each pass checks one invariant family and emits :class:`Diagnostic`
findings with a stable RL0xx code (see :mod:`.diagnostics`).  The
:class:`PassManager` runs the catalog over a :class:`LintContext`,
isolating each pass: malformed input that crashes a pass becomes an
``RL000`` finding on that pass instead of killing the lint run, so lint
always terminates with a report — the whole point of linting corrupt
artifacts.

Everything here is *static*: no trace replay, no behaviour execution.
The CFG passes (RL001–RL004) and the layout passes (RL002, RL004,
RL005, RL010–RL012) hold no condition of their own: each renders its
codes among :func:`~repro.cfg.procedure_findings` or
:func:`~repro.isa.layout.layout_findings`, the checks ``Procedure`` and
``ProcedureLayout`` construction raise on.  Those read the raw CFG and
placement attributes rather than trusting construction, because the
fault-injection harness hands the passes objects assembled behind the
constructors' backs — exactly how a real rewriter bug would manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..cfg import Procedure, Program, TerminatorKind, procedure_findings
from ..isa.encoder import INSTRUCTION_BYTES, TEXT_BASE, LinkedProgram, link
from ..isa.layout import ProcedureLayout, ProgramLayout, layout_findings
from ..profiling.edge_profile import EdgeProfile
from .binary.encoding import pass_binary_encoding, pass_binary_recovery
from .dataflow import ProgramAnalyses
from .diagnostics import Diagnostic, LintReport, PassOutcome, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..transforms.meld import AppliedMeld


@dataclass
class MeldContext:
    """An applied meld under audit: before, after, and the transcript.

    The RL018–RL021 passes re-derive *every* legality fact from
    ``original`` plus the dominator/liveness/effect analyses — they
    never trust the transform that produced ``melded``, which is what
    lets them catch a forced illegal meld.
    """

    original: Program
    melded: Program
    records: Sequence["AppliedMeld"] = ()


@dataclass
class StaticContext:
    """A static-prediction run under audit (the RL022–RL024 passes).

    ``profile`` is the :class:`~repro.profiling.staticprofile.StaticProfile`
    whose prediction report and frequency maps the passes inspect.  The
    divergence (RL022) and calibration (RL024) passes additionally need
    the *measured* profile from :class:`LintContext` to compare against;
    the sanity pass (RL023) works from the static artefacts alone.
    """

    profile: Any  # StaticProfile; typed loosely to avoid an import cycle


@dataclass
class LintContext:
    """Everything one lint run inspects.

    ``layouts`` maps a human-readable label ("orig", "greedy",
    "try15-btb") to a :class:`ProgramLayout`; layout passes run once per
    label.  ``profile`` may be ``None`` when only structural CFG checks
    are wanted.  ``meld`` carries an applied branch-melding transcript
    for the RL018–RL021 audit passes; without it those passes skip.
    ``static`` carries a static-prediction run for the RL022–RL024
    audit passes; without it those passes skip.
    """

    program: Program
    profile: Optional[EdgeProfile] = None
    layouts: Dict[str, ProgramLayout] = field(default_factory=dict)
    analyses: ProgramAnalyses = field(default_factory=ProgramAnalyses)
    meld: Optional[MeldContext] = None
    static: Optional[StaticContext] = None

    def procedures(self) -> Iterator[Procedure]:
        for name in self.program.order:
            proc = self.program.procedures.get(name)
            if proc is not None:
                yield proc


#: A pass body: inspects the context, returns its findings.
PassFn = Callable[[LintContext], List[Diagnostic]]


@dataclass(frozen=True)
class VerifierPass:
    """One named verifier pass."""

    pass_id: str
    description: str
    run: PassFn
    #: Passes needing a profile/layouts/meld/static are skipped when absent.
    needs_profile: bool = False
    needs_layouts: bool = False
    needs_meld: bool = False
    needs_static: bool = False

    def applicable(self, ctx: LintContext) -> bool:
        if self.needs_profile and ctx.profile is None:
            return False
        if self.needs_layouts and not ctx.layouts:
            return False
        if self.needs_meld and ctx.meld is None:
            return False
        if self.needs_static and ctx.static is None:
            return False
        return True


def _diag(
    code: str,
    message: str,
    pass_id: str,
    severity: Severity = Severity.ERROR,
    procedure: Optional[str] = None,
    block: Optional[int] = None,
    layout: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        pass_id=pass_id,
        procedure=procedure,
        block=block,
        layout=layout,
    )


# ----------------------------------------------------------------------
# CFG structure passes
# ----------------------------------------------------------------------
def _cfg_pass(pass_id: str, description: str, *codes: str) -> VerifierPass:
    """A pass rendering the ``codes`` among each procedure's
    :func:`~repro.cfg.procedure_findings`."""

    def run(ctx: LintContext) -> List[Diagnostic]:
        return [
            _diag(code, message, pass_id, procedure=proc.name, block=block)
            for proc in ctx.procedures()
            for code, block, message in procedure_findings(proc)
            if code in codes
        ]

    return VerifierPass(pass_id, description, run)


def _pass_reachability(ctx: LintContext) -> List[Diagnostic]:
    """RL007 (warning): blocks unreachable from the procedure entry."""
    out: List[Diagnostic] = []
    for proc in ctx.procedures():
        manager = ctx.analyses.for_procedure(proc)
        for bid in manager.unreachable():
            out.append(_diag(
                "RL007",
                "block is unreachable from the procedure entry",
                "cfg-reachability", severity=Severity.WARNING,
                procedure=proc.name, block=bid,
            ))
    return out


# ----------------------------------------------------------------------
# Profile passes
# ----------------------------------------------------------------------
def _pass_profile_consistency(ctx: LintContext) -> List[Diagnostic]:
    """RL008: profiled edges must exist in the CFG, with sane counts."""
    assert ctx.profile is not None
    out: List[Diagnostic] = []
    for proc_name in sorted(ctx.profile.procedures()):
        if proc_name not in ctx.program:
            out.append(_diag(
                "RL008",
                f"profiled procedure {proc_name!r} not in the program",
                "profile-consistency", procedure=proc_name,
            ))
            continue
        proc = ctx.program.procedure(proc_name)
        known = {(e.src, e.dst) for e in proc.edges}
        for (src, dst), count in sorted(ctx.profile.proc_edges(proc_name).items()):
            if count < 0:
                out.append(_diag(
                    "RL008",
                    f"edge {src}->{dst} has negative count {count}",
                    "profile-consistency", procedure=proc_name, block=src,
                ))
            if (src, dst) not in known:
                out.append(_diag(
                    "RL008",
                    f"profiled edge {src}->{dst} not in the CFG",
                    "profile-consistency", procedure=proc_name, block=src,
                ))
    return out


def _pass_flow_conservation(ctx: LintContext) -> List[Diagnostic]:
    """RL009: per-block in-weight equals out-weight (entry/return aside)."""
    assert ctx.profile is not None
    out: List[Diagnostic] = []
    for proc in ctx.procedures():
        edges = ctx.profile.proc_edges(proc.name)
        if not edges:
            continue
        in_w: Dict[int, int] = {}
        out_w: Dict[int, int] = {}
        for (src, dst), count in edges.items():
            out_w[src] = out_w.get(src, 0) + count
            in_w[dst] = in_w.get(dst, 0) + count
        entry = proc.original_order[0] if proc.original_order else None
        for bid, block in sorted(proc.blocks.items()):
            inc, outc = in_w.get(bid, 0), out_w.get(bid, 0)
            if bid == entry:
                if inc > outc:
                    out.append(_diag(
                        "RL009",
                        f"entry in-weight {inc} exceeds out-weight {outc}",
                        "profile-flow", procedure=proc.name, block=bid,
                    ))
            elif block.kind is TerminatorKind.RETURN:
                if outc:
                    out.append(_diag(
                        "RL009",
                        f"return block has out-weight {outc}",
                        "profile-flow", procedure=proc.name, block=bid,
                    ))
            elif inc != outc:
                out.append(_diag(
                    "RL009",
                    f"in-weight {inc} != out-weight {outc}",
                    "profile-flow", procedure=proc.name, block=bid,
                ))
    return out


# ----------------------------------------------------------------------
# Layout / lowering passes
# ----------------------------------------------------------------------
def _proc_layouts(ctx: LintContext) -> Iterator[Tuple[str, ProcedureLayout]]:
    for label, layout in ctx.layouts.items():
        for name in layout.program.order:
            proc_layout = layout.layouts.get(name)
            if proc_layout is not None:
                yield label, proc_layout


def _layout_pass(pass_id: str, description: str, *codes: str) -> VerifierPass:
    """A pass rendering the ``codes`` among each procedure layout's
    :func:`~repro.isa.layout.layout_findings`."""

    def run(ctx: LintContext) -> List[Diagnostic]:
        return [
            _diag(code, message, pass_id, procedure=proc_layout.procedure.name,
                  block=block, layout=label)
            for label, proc_layout in _proc_layouts(ctx)
            for code, block, message in layout_findings(proc_layout)
            if code in codes
        ]

    return VerifierPass(pass_id, description, run, needs_layouts=True)


def check_address_map(
    linked: LinkedProgram, label: Optional[str] = None
) -> List[Diagnostic]:
    """RL006 findings for one linked image's address map.

    Walking procedures in link order and blocks in layout order, every
    procedure must start at the running cursor and every placed block
    must have an instruction-aligned address at the cursor (no hole, no
    overlap), the layout's placed size, and its terminator and appended
    jump inside its own range; the map may hold no block the layout
    never placed, and the walk must end at ``text_end``.  The
    ``lower-addresses`` pass runs this on each layout it lowers, and the
    runner's link-stage check on each image it links.
    """
    out: List[Diagnostic] = []

    def finding(message: str, procedure: Optional[str] = None,
                block: Optional[int] = None) -> None:
        out.append(_diag("RL006", message, "lower-addresses",
                         procedure=procedure, block=block, layout=label))

    cursor = TEXT_BASE
    for name in linked.program.order:
        proc_layout = linked.layout.layouts.get(name)
        if proc_layout is None:
            continue
        placed = linked.blocks.get(name, {})
        start = linked.proc_start.get(name)
        if start != cursor:
            where = "has no start address" if start is None else f"starts at {start:#x}"
            finding(f"procedure {where}, expected {cursor:#x}", name)
        for placement in proc_layout.placements:
            lb = placed.get(placement.bid)
            if lb is None:
                finding("placed block has no address", name, placement.bid)
                continue
            if lb.start % INSTRUCTION_BYTES:
                finding(f"start {lb.start:#x} not instruction-aligned",
                        name, placement.bid)
            if lb.start != cursor:
                word = "overlaps" if lb.start < cursor else "leaves a hole before"
                finding(f"block at {lb.start:#x} {word} the expected "
                        f"address {cursor:#x}", name, placement.bid)
            size = proc_layout.placed_size(placement.bid)
            if lb.size != size:
                finding(f"linked size {lb.size} != layout size {size}",
                        name, placement.bid)
            for addr, role in ((lb.term_address, "terminator"),
                               (lb.jump_address, "appended jump")):
                if addr is not None and not lb.start <= addr < lb.end:
                    finding(f"{role} address {addr:#x} outside the block's "
                            f"range [{lb.start:#x}, {lb.end:#x})",
                            name, placement.bid)
            cursor = lb.end
        unplaced = set(placed) - {p.bid for p in proc_layout.placements}
        if unplaced:
            finding(f"address map holds unplaced blocks {sorted(unplaced)}", name)
    if cursor != linked.text_end:
        finding(f"text segment ends at {linked.text_end:#x} but the "
                f"address walk reached {cursor:#x}")
    return out


def _pass_addresses(ctx: LintContext) -> List[Diagnostic]:
    """RL006: lowered addresses tile the text segment without overlap."""
    out: List[Diagnostic] = []
    for label, layout in ctx.layouts.items():
        try:
            linked = link(layout)
        except Exception as exc:
            out.append(_diag(
                "RL006",
                f"layout could not be lowered to addresses: "
                f"{type(exc).__name__}: {exc}",
                "lower-addresses", layout=label,
            ))
            continue
        out.extend(check_address_map(linked, label))
    return out


# ----------------------------------------------------------------------
# Branch-melding audit passes (RL018-RL021)
# ----------------------------------------------------------------------
def _meld_approvals(ctx: LintContext, proc: Procedure) -> Dict[int, Any]:
    """Analyzer-approved sites of one original procedure, re-derived."""
    from .legality import analyze_procedure, behavior_owners

    assert ctx.meld is not None
    owners = behavior_owners(ctx.meld.original.procedures.values())
    manager = ctx.analyses.for_procedure(proc)
    return {
        s.site: s
        for s in analyze_procedure(proc, manager, owners)
        if s.approved
    }


def _pass_meld_legality(ctx: LintContext) -> List[Diagnostic]:
    """RL018: applied melds must be analyzer-approved and faithfully applied."""
    out: List[Diagnostic] = []
    meld = ctx.meld
    assert meld is not None
    for record in meld.records:
        proc = meld.original.procedures.get(record.procedure)
        if proc is None:
            out.append(_diag(
                "RL018",
                f"meld transcript names unknown procedure {record.procedure!r}",
                "meld-legality",
            ))
            continue
        approvals = _meld_approvals(ctx, proc)
        verdict = approvals.get(record.site)
        if verdict is None:
            out.append(_diag(
                "RL018",
                f"meld at block {record.site} was not approved by the "
                "legality analyzer",
                "meld-legality", procedure=record.procedure,
                block=record.site,
            ))
        elif verdict.target != record.target:
            out.append(_diag(
                "RL018",
                f"meld at block {record.site} branches to {record.target} "
                f"but the analyzer approved the fall-through {verdict.target}",
                "meld-legality", procedure=record.procedure,
                block=record.site,
            ))
        melded_proc = meld.melded.procedures.get(record.procedure)
        if melded_proc is None:
            continue
        block = melded_proc.blocks.get(record.site)
        taken = (
            melded_proc.taken_edge(record.site) if block is not None else None
        )
        if (
            block is None
            or block.kind is not TerminatorKind.UNCOND
            or block.behavior is not None
            or taken is None
            or taken.dst != record.target
        ):
            out.append(_diag(
                "RL018",
                f"melded program does not reflect the recorded meld at "
                f"block {record.site}",
                "meld-legality", procedure=record.procedure,
                block=record.site,
            ))
    return out


def _pass_meld_liveness(ctx: LintContext) -> List[Diagnostic]:
    """RL019: a meld must only erase dead decision streams and dead blocks."""
    from .legality import behavior_owners, behavior_root

    out: List[Diagnostic] = []
    meld = ctx.meld
    assert meld is not None
    owners = behavior_owners(meld.original.procedures.values())
    for record in meld.records:
        proc = meld.original.procedures.get(record.procedure)
        if proc is None:
            continue
        site_block = proc.blocks.get(record.site)
        if site_block is not None:
            root = behavior_root(site_block.behavior)
            sharers = owners.get(id(root), []) if root is not None else []
            others = [o for o in sharers if o != (record.procedure, record.site)]
            if others:
                out.append(_diag(
                    "RL019",
                    f"melded site {record.site} shares its decision stream "
                    f"with live site(s) {others}",
                    "meld-liveness", procedure=record.procedure,
                    block=record.site,
                ))
        manager = ctx.analyses.for_procedure(proc)
        live = manager.live_control_sites()
        melded_proc = meld.melded.procedures.get(record.procedure)
        for bid in record.removed:
            if melded_proc is not None and bid in melded_proc.blocks:
                out.append(_diag(
                    "RL019",
                    f"block {bid} is recorded removed but survives the meld",
                    "meld-liveness", procedure=record.procedure, block=bid,
                ))
            removed_block = proc.blocks.get(bid)
            if removed_block is None:
                continue
            if removed_block.kind in (
                TerminatorKind.COND, TerminatorKind.INDIRECT
            ):
                # A decision site that was live on the erased arm is gone
                # wholesale; its seeded stream cannot be replayed.
                out.append(_diag(
                    "RL019",
                    f"meld erased live decision site {bid} "
                    f"(live-out of {sorted(live.get(bid, ()))})",
                    "meld-liveness", procedure=record.procedure, block=bid,
                ))
            root = behavior_root(removed_block.behavior)
            if root is not None and len(owners.get(id(root), [])) > 1:
                out.append(_diag(
                    "RL019",
                    f"removed block {bid} drives a shared decision stream",
                    "meld-liveness", procedure=record.procedure, block=bid,
                ))
    return out


def _pass_meld_effects(ctx: LintContext) -> List[Diagnostic]:
    """RL020: the surviving arm must replay the erased arm's side effects."""
    out: List[Diagnostic] = []
    meld = ctx.meld
    assert meld is not None
    for record in meld.records:
        proc = meld.original.procedures.get(record.procedure)
        if proc is None:
            continue
        manager = ctx.analyses.for_procedure(proc)
        chains = manager.site_chains()
        effects = manager.block_effects()
        pair = chains.get(record.site)
        if pair is None:
            continue  # not a conditional site; RL018 reports it
        taken, fall = pair
        calls_taken = [t for t in taken.observables if not t.startswith("ops:")]
        calls_fall = [t for t in fall.observables if not t.startswith("ops:")]
        if calls_taken != calls_fall:
            out.append(_diag(
                "RL020",
                f"meld at block {record.site} reorders observable calls: "
                f"taken arm {calls_taken} vs fall arm {calls_fall}",
                "meld-effects", procedure=record.procedure,
                block=record.site,
            ))
        for bid in record.removed:
            summary = effects.get(bid)
            if summary is not None and summary.indirect_calls:
                out.append(_diag(
                    "RL020",
                    f"removed block {bid} performs {summary.indirect_calls} "
                    "indirect call(s) whose targets cannot be replayed",
                    "meld-effects", procedure=record.procedure, block=bid,
                ))
    return out


def _pass_meld_region(ctx: LintContext) -> List[Diagnostic]:
    """RL021: recorded region shapes must match the dominator structure."""
    out: List[Diagnostic] = []
    meld = ctx.meld
    assert meld is not None
    for record in meld.records:
        proc = meld.original.procedures.get(record.procedure)
        if proc is None:
            continue
        manager = ctx.analyses.for_procedure(proc)
        region = manager.region_shapes().get(record.site)
        if region is None:
            out.append(_diag(
                "RL021",
                f"block {record.site} has no conditional region to meld",
                "meld-region", procedure=record.procedure, block=record.site,
            ))
            continue
        if region.shape != record.shape:
            out.append(_diag(
                "RL021",
                f"meld at block {record.site} recorded a {record.shape} "
                f"region but the dominator tree says {region.shape}",
                "meld-region", procedure=record.procedure, block=record.site,
            ))
        expected_action = (
            "if-convert" if record.shape == "triangle" else "meld"
        )
        if record.action != expected_action:
            out.append(_diag(
                "RL021",
                f"meld at block {record.site} pairs action "
                f"{record.action!r} with shape {record.shape!r}",
                "meld-region", procedure=record.procedure, block=record.site,
            ))
    return out


# ----------------------------------------------------------------------
# Static-prediction audit passes (RL022-RL024)
# ----------------------------------------------------------------------

#: Absolute probability gap above which RL022 flags a divergent site.
DIVERGENCE_GAP = 0.35
#: Minimum measured executions before a site's divergence is reported.
DIVERGENCE_MIN_WEIGHT = 8
#: Calibration: high-confidence sites must predict the measured majority
#: direction at least this often.
CALIBRATION_FLOOR = 0.75
#: Confidence at or above which a site counts as high-confidence.
CALIBRATION_CONFIDENCE = 0.80
#: Propagated flow residual tolerance, relative to the block frequency.
FLOW_TOLERANCE = 1e-6


def _static_sites(ctx: LintContext) -> Iterator[Tuple[Procedure, Any]]:
    """(procedure, SitePrediction) pairs of the context's static run."""
    assert ctx.static is not None
    report = ctx.static.profile.report
    if report is None:
        return
    for proc in ctx.procedures():
        for site in report.for_procedure(proc.name):
            if site.block in proc.blocks:
                yield proc, site


def _measured_mix(
    ctx: LintContext, proc: Procedure, bid: int
) -> Optional[Tuple[int, int]]:
    """Measured (taken, fall) weights of a conditional, or None."""
    assert ctx.profile is not None
    taken = proc.taken_edge(bid)
    fall = proc.fallthrough_edge(bid)
    if taken is None or fall is None:
        return None
    return (
        ctx.profile.weight(proc.name, bid, taken.dst),
        ctx.profile.weight(proc.name, bid, fall.dst),
    )


def _pass_predict_divergence(ctx: LintContext) -> List[Diagnostic]:
    """RL022: predicted vs measured taken-probability audit.

    Warnings, not errors: a heuristic predictor is *expected* to miss
    sites — the audit exists so a workload whose static profile is badly
    wrong is visible in ``repro lint`` instead of silently costing CPI.
    """
    out: List[Diagnostic] = []
    for proc, site in _static_sites(ctx):
        mix = _measured_mix(ctx, proc, site.block)
        if mix is None:
            continue
        w_taken, w_fall = mix
        weight = w_taken + w_fall
        if weight < DIVERGENCE_MIN_WEIGHT:
            continue
        measured = w_taken / weight
        gap = abs(site.p_taken - measured)
        if gap > DIVERGENCE_GAP:
            out.append(_diag(
                "RL022",
                f"predicted p(taken)={site.p_taken:.2f} "
                f"({'+'.join(site.heuristics)}) but the profile measured "
                f"{measured:.2f} over {weight} executions",
                "predict-divergence", severity=Severity.WARNING,
                procedure=proc.name, block=site.block,
            ))
    return out


def _pass_predict_sanity(ctx: LintContext) -> List[Diagnostic]:
    """RL023: probabilities legal, synthetic counts flow-conserved.

    These are hard invariants of the predictor/propagator pair, so any
    violation is an error: probabilities must be honest probabilities,
    votes must cite registered heuristics, and the propagated block
    frequencies must equal their in-flow (the Wu–Larus fixed point).
    """
    from .predict import HEURISTICS

    assert ctx.static is not None
    out: List[Diagnostic] = []
    known = set(HEURISTICS)
    for proc, site in _static_sites(ctx):
        if not 0.0 <= site.p_taken <= 1.0:
            out.append(_diag(
                "RL023",
                f"predicted probability {site.p_taken!r} outside [0, 1]",
                "predict-sanity", procedure=proc.name, block=site.block,
            ))
        for vote in site.votes:
            if vote.heuristic not in known:
                out.append(_diag(
                    "RL023",
                    f"vote cites unregistered heuristic {vote.heuristic!r}",
                    "predict-sanity", procedure=proc.name, block=site.block,
                ))
            if not 0.5 <= vote.hit_rate <= 1.0:
                out.append(_diag(
                    "RL023",
                    f"{vote.heuristic} hit-rate {vote.hit_rate!r} "
                    "outside [0.5, 1]",
                    "predict-sanity", procedure=proc.name, block=site.block,
                ))
    frequencies = ctx.static.profile.frequencies
    for proc in ctx.procedures():
        fmap = frequencies.get(proc.name)
        if fmap is None:
            continue
        for bid, freq in sorted(fmap.block_freq.items()):
            if freq < 0.0:
                out.append(_diag(
                    "RL023",
                    f"negative propagated frequency {freq!r}",
                    "predict-sanity", procedure=proc.name, block=bid,
                ))
        residuals = fmap.conservation_residuals(proc)
        for bid, residual in sorted(residuals.items()):
            bound = FLOW_TOLERANCE * max(fmap.block_freq.get(bid, 0.0), 1.0)
            damped = fmap.cyclic.get(bid, 0.0) >= fmap.cp_cap
            if residual > bound and not damped:
                out.append(_diag(
                    "RL023",
                    f"propagated flow not conserved: |in - freq| = "
                    f"{residual:.3e} exceeds {bound:.3e}",
                    "predict-sanity", procedure=proc.name, block=bid,
                ))
    return out


def _pass_predict_calibration(ctx: LintContext) -> List[Diagnostic]:
    """RL024: confidence calibration against the measured profile.

    Buckets the predictor's sites by confidence and reports each
    bucket's measured direction-agreement rate (INFO).  When the
    high-confidence bucket agrees on fewer than ``CALIBRATION_FLOOR`` of
    its weighted executions, the predictor is overconfident and the
    report escalates to a warning.
    """
    out: List[Diagnostic] = []
    buckets: Dict[str, List[Tuple[float, bool, int]]] = {
        "low": [], "mid": [], "high": [],
    }
    for proc, site in _static_sites(ctx):
        mix = _measured_mix(ctx, proc, site.block)
        if mix is None:
            continue
        w_taken, w_fall = mix
        weight = w_taken + w_fall
        if not weight:
            continue
        agree = site.predicts_taken == (w_taken > w_fall)
        conf = site.confidence
        key = (
            "high" if conf >= CALIBRATION_CONFIDENCE
            else "mid" if conf >= 0.4 else "low"
        )
        buckets[key].append((conf, agree, weight))
    parts: List[str] = []
    for key in ("high", "mid", "low"):
        entries = buckets[key]
        total = sum(w for _, _, w in entries)
        if not total:
            continue
        hit = sum(w for _, agree, w in entries if agree)
        parts.append(
            f"{key}: {len(entries)} site(s), "
            f"{100.0 * hit / total:.0f}% weighted agreement"
        )
    if parts:
        out.append(_diag(
            "RL024", "confidence calibration — " + "; ".join(parts),
            "predict-calibration", severity=Severity.INFO,
        ))
    high = buckets["high"]
    high_total = sum(w for _, _, w in high)
    if high_total:
        high_hit = sum(w for _, agree, w in high if agree)
        rate = high_hit / high_total
        if rate < CALIBRATION_FLOOR:
            out.append(_diag(
                "RL024",
                f"high-confidence sites agree with the measured direction "
                f"on only {100.0 * rate:.0f}% of weighted executions "
                f"(floor {100.0 * CALIBRATION_FLOOR:.0f}%) — the predictor "
                "is overconfident on this workload",
                "predict-calibration", severity=Severity.WARNING,
            ))
    return out


# ----------------------------------------------------------------------
# The catalog and the pass manager
# ----------------------------------------------------------------------
PASSES: Tuple[VerifierPass, ...] = (
    _cfg_pass("cfg-unique-blocks", "block ids unique and consistently tabled", "RL001"),
    _cfg_pass("cfg-entry", "entry block exists and is unique", "RL002"),
    _cfg_pass("cfg-terminators", "out-edges legal for each terminator kind", "RL003"),
    _cfg_pass("cfg-edge-resolution", "every edge endpoint resolves", "RL004"),
    VerifierPass("cfg-reachability", "blocks reachable from the entry",
                 _pass_reachability),
    VerifierPass("profile-consistency", "profiled edges exist in the CFG",
                 _pass_profile_consistency, needs_profile=True),
    VerifierPass("profile-flow", "per-block profile flow conservation",
                 _pass_flow_conservation, needs_profile=True),
    _layout_pass("layout-permutation", "layouts place every block once, entry first",
                 "RL011", "RL002"),
    _layout_pass("lower-fallthrough", "implicit successors placed adjacent", "RL005"),
    _layout_pass("lower-branch-sense", "conditional sense flips are invertible", "RL010"),
    _layout_pass("lower-transfer-targets", "rewritten transfers hit CFG successors",
                 "RL012", "RL004"),
    VerifierPass("lower-addresses", "addresses tile the text segment",
                 _pass_addresses, needs_layouts=True),
    VerifierPass("binary-encoding", "linked stream displacements and targets encode",
                 pass_binary_encoding, needs_layouts=True),
    VerifierPass("binary-recovery", "recovered binary CFG is consistent and covered",
                 pass_binary_recovery, needs_layouts=True),
    VerifierPass("meld-legality", "applied melds carry analyzer approval",
                 _pass_meld_legality, needs_meld=True),
    VerifierPass("meld-liveness", "melds erase only dead decision streams",
                 _pass_meld_liveness, needs_meld=True),
    VerifierPass("meld-effects", "surviving arms replay erased side effects",
                 _pass_meld_effects, needs_meld=True),
    VerifierPass("meld-region", "recorded region shapes match the dominators",
                 _pass_meld_region, needs_meld=True),
    VerifierPass("predict-divergence", "static prediction tracks the measured profile",
                 _pass_predict_divergence, needs_profile=True, needs_static=True),
    VerifierPass("predict-sanity", "static probabilities legal and flow-conserved",
                 _pass_predict_sanity, needs_static=True),
    VerifierPass("predict-calibration", "prediction confidence is calibrated",
                 _pass_predict_calibration, needs_profile=True, needs_static=True),
)


def pass_ids(
    passes: Tuple[VerifierPass, ...] = PASSES,
) -> Tuple[str, ...]:
    """All registered pass ids, in catalog order."""
    return tuple(p.pass_id for p in passes)


def pass_count(passes: Tuple[VerifierPass, ...] = PASSES) -> int:
    """Size of the pass registry (the single source of the pass count)."""
    return len(passes)


class PassManager:
    """Runs a pass catalog over a context, isolating pass crashes."""

    def __init__(self, passes: Tuple[VerifierPass, ...] = PASSES):
        self.passes = passes

    def run(self, ctx: LintContext, subject: str) -> LintReport:
        report = LintReport(subject=subject, layouts=list(ctx.layouts))
        for verifier_pass in self.passes:
            if not verifier_pass.applicable(ctx):
                continue
            outcome = PassOutcome(verifier_pass.pass_id, verifier_pass.description)
            try:
                outcome.findings = verifier_pass.run(ctx)
            except Exception as exc:
                outcome.crashed = True
                outcome.findings = [_diag(
                    "RL000",
                    f"pass crashed: {type(exc).__name__}: {exc}",
                    verifier_pass.pass_id,
                )]
            report.outcomes.append(outcome)
        return report


def run_lint(
    program: Program,
    profile: Optional[EdgeProfile] = None,
    layouts: Optional[Mapping[str, ProgramLayout]] = None,
    subject: str = "program",
    meld: Optional[MeldContext] = None,
    static: Optional[StaticContext] = None,
) -> LintReport:
    """Run the full verifier-pass catalog and return the report."""
    ctx = LintContext(
        program=program,
        profile=profile,
        layouts=dict(layouts or {}),
        meld=meld,
        static=static,
    )
    return PassManager().run(ctx, subject)
