"""The differential layout oracle: prove a rewrite is semantics-preserving.

The paper's credibility rests on OM's rewrite changing *where* code
lives, never *what* it does: an aligned binary must execute the same
dynamic instruction stream as the original, only at different addresses.
This module checks that property for every layout the aligners produce,
by replaying each benchmark's decision trace on the original and the
aligned binary and checking **trace isomorphism**:

* **block-sequence** — both executions visit the identical sequence of
  ``(procedure, block)`` pairs;
* **branch-sense** — every emitted conditional outcome in the aligned
  run equals the original outcome XOR the layout's registered sense
  inversion for that branch;
* **flow-conservation** — the edge traversal counts of the run equal
  the :class:`EdgeProfile` passed in (the profile the aligner consumed);
* **address-replay** — the original trace's semantic decisions are
  replayed through the aligned *lowered instruction stream* (branch
  target addresses, fall-through adjacency, inserted jumps), verifying
  each transfer lands at the expected block's address;
* **edit-agreement** — the edits :mod:`repro.isa.diff` *reports*
  (inversions, inserted jumps, deleted branches) match the edits
  actually observed in the lowered code, and blocks it does not report
  are lowered identically.

Every dynamic check is a pure function of one step template of the
:class:`~repro.sim.decisions.DecisionTrace` — the edge it replays, the
conditional whose emitted bit it compares, the block it enters — so the
oracle judges each distinct template once, weighted by its count, not
each step.  The original image is linked and bound to the trace
(:func:`~repro.sim.replay.compile_steps`) once per unit; each aligned
image once per distinct layout, whose verdict every label of that
layout shares.  Flow-conservation, ``blocks_compared`` and
``edges_replayed`` follow from the template counts.  Only when a
template fails does one pass over the step stream recover the trace
indices of its first occurrences, so a divergence carries the first
diverging trace index plus the expected and actual block and reads like
a debugger backtrace, not a flag.

What each check can see.  The trace fixes every decision and the block
each step enters, independently of the image it is replayed through:

* block-sequence compares the trace with itself; it guards the replay
  machinery and no layout can fail it;
* flow-conservation compares the profile passed in with the trace; it
  catches a profile from another run, not a rewriter bug;
* branch-sense and edit-agreement compare code generated from a
  placement with that placement's own declared edits (taken targets,
  inversions, jumps, deletions), so a placement-level fault that stays
  consistent with itself — a conditional flipped to its other
  successor, a retargeted jump — passes both;
* address-replay compares the lowered image with the trace's
  decisions.  It is the check that catches a mutated placement, a
  wrong-sense branch or a retargeted jump.  On 101 layout faults
  (``flip-sense`` and ``mutate-layout`` on every registry layout of
  eqntott, compress, alvinn, gcc, li and espresso at scale 0.05) it was
  the only check that fired, and it caught all 101.  A jump retargeted
  to a zero-size block that starts where the right target starts links
  to an unchanged image, which no judge can (or should) reject; that is
  why ``mutate-layout`` draws again in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cfg import BlockId, Program, TerminatorKind
from ..core.registry import TRY_MODEL_ARCHS, aligner_names, get_spec
from ..isa.diff import diff_layouts
from ..isa.encoder import LinkedProgram, link
from ..isa.instructions import Opcode
from ..isa.layout import ProgramLayout, layout_twins
from ..profiling.edge_profile import EdgeProfile
from ..sim import trace as tr
from ..sim.decisions import DecisionTrace, capture_decisions
from ..sim.replay import compile_steps

#: A block in stable coordinates: (procedure name, block id).
BlockRef = Tuple[str, BlockId]

#: Cap on divergences recorded per check — the first one is the story,
#: the rest confirm it is systematic.
MAX_DIVERGENCES = 5

#: A failing template's divergence text: (expected, actual, detail).
_Text = Tuple[str, str, str]


@dataclass
class Divergence:
    """One observed difference between original and aligned behaviour."""

    check: str
    #: Index into the dynamic trace (block sequence, conditional
    #: executions or edge trail), or ``None`` for static findings.
    index: Optional[int]
    expected: str
    actual: str
    detail: str = ""

    def __str__(self) -> str:
        where = f"trace index {self.index}" if self.index is not None else "static"
        text = (
            f"[{self.check}] {where}: expected {self.expected}, "
            f"actual {self.actual}"
        )
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class OracleReport:
    """The verdict for one aligned layout of one program."""

    label: str
    blocks_compared: int
    edges_replayed: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _fmt_block(ref: BlockRef) -> str:
    return f"{ref[0]}:{ref[1]}"


# ----------------------------------------------------------------------
# Lowered-code view: terminator / jump targets read from the disassembly
# ----------------------------------------------------------------------
class _LoweredView:
    """Branch targets of a linked image, read from its instruction stream."""

    def __init__(self, linked: LinkedProgram):
        self.linked = linked
        #: (proc, bid) -> terminator branch target address (COND/UNCOND).
        self.term_target: Dict[BlockRef, int] = {}
        #: (proc, bid) -> appended-jump target address.
        self.jump_target: Dict[BlockRef, int] = {}
        self.start_of: Dict[BlockRef, int] = {}
        self.block_at: Dict[int, BlockRef] = {}
        #: Every block starting at an address.  A block lowered to zero
        #: bytes (a one-instruction unconditional whose branch was
        #: removed) shares its start with the block it falls into, so an
        #: address can name several blocks — branching to it reaches all
        #: of them.
        self.blocks_at: Dict[int, List[BlockRef]] = {}
        #: Branch-site address (terminator or appended jump) -> its block.
        self.site_block: Dict[int, BlockRef] = {}
        for proc_name, placed in linked.blocks.items():
            for bid, lb in placed.items():
                ref = (proc_name, bid)
                self.start_of[ref] = lb.start
                self.block_at[lb.start] = ref
                self.blocks_at.setdefault(lb.start, []).append(ref)
                if lb.term_address is not None:
                    self.site_block[lb.term_address] = ref
                if lb.jump_address is not None:
                    self.site_block[lb.jump_address] = ref
        for proc_name in linked.program.order:
            branch_at = {
                instr.address: instr
                for instr in linked.disassemble(proc_name)
                if instr.opcode in (
                    Opcode.COND_BRANCH, Opcode.UNCOND_BRANCH,
                    Opcode.INDIRECT_JUMP, Opcode.RETURN,
                )
            }
            for bid, lb in linked.blocks[proc_name].items():
                ref = (proc_name, bid)
                term = branch_at.get(lb.term_address)
                if term is not None and term.target is not None:
                    self.term_target[ref] = term.target
                jump = branch_at.get(lb.jump_address)
                if jump is not None and lb.jump_address is not None:
                    self.jump_target[ref] = jump.target

    def resolve(self, address: int) -> str:
        """Best-effort name of whatever lives at ``address``."""
        ref = self.block_at.get(address)
        return _fmt_block(ref) if ref is not None else f"{address:#x}"


class _Image:
    """One linked image bound to a decision trace, template by template."""

    def __init__(self, linked: LinkedProgram, trace: DecisionTrace):
        self.lowered = lowered = _LoweredView(linked)
        steps = compile_steps(linked, trace)
        #: Per template: the block its step enters (None for returns).
        self.entered: List[Optional[BlockRef]] = [
            (step.enter_proc, step.enter_bid) if step.enter_size >= 0 else None
            for step in steps
        ]
        #: Per template: its conditional's (block, emitted taken bit).
        self.cond: List[Optional[Tuple[BlockRef, bool]]] = [
            next(
                (
                    (lowered.site_block[site], taken)
                    for kind, site, _target, taken in step.events
                    if kind == tr.COND
                ),
                None,
            )
            for step in steps
        ]
        #: Per template: the intra-procedural edge it traverses.
        self.edges = [step.edge for step in steps]


# ----------------------------------------------------------------------
# Individual checks: each maps a failing template to its divergence text
# ----------------------------------------------------------------------
def _block_failures(base: _Image, aligned: _Image) -> Dict[int, _Text]:
    return {
        tid: (_fmt_block(want), _fmt_block(got), "")
        for tid, (want, got) in enumerate(zip(base.entered, aligned.entered))
        if want != got
    }


def _sense_failures(
    base: _Image, aligned: _Image, layout: ProgramLayout
) -> Dict[int, _Text]:
    inverted = {
        (name, bid)
        for name in layout.program.order
        for bid in layout[name].inverted_conditionals()
    }
    out: Dict[int, _Text] = {}
    for tid, (was, now) in enumerate(zip(base.cond, aligned.cond)):
        if was is None or now is None:
            continue
        (ref0, taken0), (ref1, taken1) = was, now
        if ref0 != ref1:
            out[tid] = (
                _fmt_block(ref0), _fmt_block(ref1),
                "conditional executed out of order",
            )
            continue
        expected = taken0 != (ref0 in inverted)
        if taken1 != expected:
            out[tid] = (
                f"{_fmt_block(ref0)} taken={expected}",
                f"{_fmt_block(ref1)} taken={taken1}",
                "outcome disagrees with registered sense inversion",
            )
    return out


def _check_flow_conservation(
    profile: EdgeProfile, edge_counts: Dict[Tuple[str, BlockId, BlockId], int]
) -> List[Divergence]:
    expected: Dict[Tuple[str, BlockId, BlockId], int] = {}
    for name in profile.procedures():
        for (src, dst), count in profile.proc_edges(name).items():
            if count:
                expected[(name, src, dst)] = count
    out: List[Divergence] = []
    for key in sorted(set(expected) | set(edge_counts)):
        want, got = expected.get(key, 0), edge_counts.get(key, 0)
        if want != got:
            proc, src, dst = key
            out.append(Divergence(
                "flow-conservation", None,
                f"{proc}:{src}->{dst} x{want}",
                f"{proc}:{src}->{dst} x{got}",
                "aligned edge counts disagree with the consumed profile",
            ))
            if len(out) >= MAX_DIVERGENCES:
                break
    return out


def _replay_failures(
    kinds: Dict[BlockRef, TerminatorKind], base: _Image, lowered: _LoweredView
) -> Dict[int, _Text]:
    """Replay each of the original trace's transfers through the aligned code.

    For every intra-procedural transition ``src -> dst`` the original
    binary performed, derive from the aligned *instruction stream* (not
    the layout data structure) the address control actually transfers
    to, and require it to be ``dst``'s address.
    """
    out: Dict[int, _Text] = {}
    linked = lowered.linked
    for tid, edge in enumerate(base.edges):
        if edge is None:
            continue
        proc_name, src, dst = edge
        ref = (proc_name, src)
        kind = kinds[ref]
        if kind in (TerminatorKind.INDIRECT, TerminatorKind.RETURN):
            continue  # targets are runtime values, not lowered addresses
        lb = linked.block(proc_name, src)
        dst_addr = lowered.start_of[(proc_name, dst)]
        if kind is TerminatorKind.COND:
            branch_target = lowered.term_target.get(ref)
            if branch_target == dst_addr:
                continue  # taken path lands correctly
            reached = lowered.jump_target.get(ref, lb.end)
        elif kind is TerminatorKind.UNCOND:
            if ref in lowered.term_target:
                reached = lowered.term_target[ref]
            else:  # branch deleted by alignment: must fall through
                reached = lowered.jump_target.get(ref, lb.end)
        else:  # FALLTHROUGH
            reached = lowered.jump_target.get(ref, lb.end)
        if reached != dst_addr:
            out[tid] = (
                _fmt_block((proc_name, dst)),
                lowered.resolve(reached),
                f"lowered code for block {_fmt_block(ref)} transfers to "
                f"{reached:#x}, {_fmt_block((proc_name, dst))} lives at "
                f"{dst_addr:#x}",
            )
    return out


def _locate(
    trace: DecisionTrace,
    checks: Sequence[Tuple[str, int, Sequence[object], Dict[int, _Text]]],
) -> List[List[Divergence]]:
    """Find where the failing templates first occur, in one pass.

    Each check is ``(name, first index, members, failures)``: a step of
    template ``tid`` takes the next index of that check's sequence when
    ``members[tid]`` is not None, and ``failures`` holds the failing
    templates' texts.  Records the first :data:`MAX_DIVERGENCES`
    failing steps per check, and stops once every check has them.
    """
    found: List[List[Divergence]] = [[] for _ in checks]
    wanted = [
        min(MAX_DIVERGENCES, sum(trace.counts[tid] for tid in failures))
        for _name, _first, _members, failures in checks
    ]
    live = [i for i, want in enumerate(wanted) if want]
    if not live:
        return found
    index = [first for _name, first, _members, _failures in checks]
    for tid in trace.iter_steps():
        for i in live:
            name, _first, members, failures = checks[i]
            if members[tid] is None:
                continue
            text = failures.get(tid)
            if text is not None and len(found[i]) < wanted[i]:
                found[i].append(Divergence(name, index[i], *text))
            index[i] += 1
        if all(len(found[i]) == wanted[i] for i in live):
            break
    return found


def _observed_edits(program: Program, lowered: _LoweredView):
    """Edits visible in a lowered image, per procedure.

    Returns ``(cond_target, jumps, missing_terminator)`` where
    ``cond_target[(proc, bid)]`` is the address a conditional's lowered
    branch targets, ``jumps[(proc, bid)]`` the address an appended jump
    targets, and ``missing_terminator`` the unconditional blocks lowered
    without their branch instruction.  Targets stay raw addresses —
    several blocks can share one start address when a block lowers to
    zero bytes, so resolution to a single block would be ambiguous.
    """
    cond_target: Dict[BlockRef, int] = {}
    jumps: Dict[BlockRef, int] = {}
    missing: set = set()
    for proc in program:
        for bid in proc.blocks:
            ref = (proc.name, bid)
            kind = proc.block(bid).kind
            if ref in lowered.jump_target:
                jumps[ref] = lowered.jump_target[ref]
            if kind is TerminatorKind.COND:
                target = lowered.term_target.get(ref)
                if target is not None:
                    cond_target[ref] = target
            elif kind is TerminatorKind.UNCOND and ref not in lowered.term_target:
                missing.add(ref)
    return cond_target, jumps, missing


def _same_destination(
    al_view: _LoweredView,
    al_addr: Optional[int],
    id_view: _LoweredView,
    id_addr: Optional[int],
) -> bool:
    """Do two branch-target addresses name the same block?

    Each address is interpreted in its own image.  An address names
    every block starting there — zero-size blocks overlap the block
    they fall into, and a branch to the shared address reaches both —
    so the targets agree when the block sets intersect.
    """
    if al_addr is None or id_addr is None:
        return al_addr == id_addr
    a = al_view.blocks_at.get(al_addr, [])
    b = id_view.blocks_at.get(id_addr, [])
    return bool(set(a) & set(b))


def _check_edit_agreement(
    program: Program,
    layout: ProgramLayout,
    lowered: _LoweredView,
    identity: ProgramLayout,
    id_view: _LoweredView,
    id_cond: Dict[BlockRef, int],
) -> List[Divergence]:
    """``isa.diff``'s reported edits must match the lowered code.

    ``id_cond`` holds the original image's conditional branch targets.
    """
    diffs = {d.name: d for d in diff_layouts(identity, layout)}
    al_cond, al_jumps, al_missing = _observed_edits(program, lowered)

    out: List[Divergence] = []

    def report(expected: str, actual: str, detail: str) -> bool:
        out.append(Divergence("edit-agreement", None, expected, actual, detail))
        return len(out) >= MAX_DIVERGENCES

    for proc in program:
        diff = diffs[proc.name]
        reported_inverted = {(proc.name, bid) for bid in diff.inverted}
        observed_inverted = {
            ref for ref, target in al_cond.items()
            if ref[0] == proc.name
            and not _same_destination(lowered, target, id_view, id_cond.get(ref))
        }
        for ref in sorted(reported_inverted ^ observed_inverted):
            where = "reported" if ref in reported_inverted else "observed"
            if report(
                f"{_fmt_block(ref)} inverted in report and code",
                f"inversion only {where}",
                "diff report and lowered branch sense disagree",
            ):
                return out

        reported_jumps = {
            (proc.name, bid): (proc.name, target)
            for bid, target in id_jumps_of(diff, identity[proc.name]).items()
        }
        observed_jumps = {
            ref: target for ref, target in al_jumps.items() if ref[0] == proc.name
        }
        for ref in sorted(set(reported_jumps) | set(observed_jumps)):
            want, got = reported_jumps.get(ref), observed_jumps.get(ref)
            agrees = (
                want is None and got is None
            ) or (
                want is not None and got is not None
                and want in lowered.blocks_at.get(got, [])
            )
            if not agrees:
                if report(
                    f"jump {_fmt_block(ref)} -> "
                    + (_fmt_block(want) if want else "absent"),
                    f"jump -> "
                    + (lowered.resolve(got) if got is not None else "absent"),
                    "reported jump edits disagree with lowered jumps",
                ):
                    return out

        reported_missing = (
            {(proc.name, bid) for bid in identity[proc.name].removed_branches()}
            - {(proc.name, bid) for bid in diff.branches_restored}
        ) | {(proc.name, bid) for bid in diff.branches_removed}
        observed_missing = {ref for ref in al_missing if ref[0] == proc.name}
        for ref in sorted(reported_missing ^ observed_missing):
            where = "reported" if ref in reported_missing else "observed"
            if report(
                f"{_fmt_block(ref)} branch deleted in report and code",
                f"deletion only {where}",
                "reported branch deletions disagree with lowered code",
            ):
                return out
    return out


def id_jumps_of(diff, identity_layout) -> Dict[BlockId, BlockId]:
    """The jump set the diff report claims the aligned layout has."""
    jumps = dict(identity_layout.inserted_jumps())
    for bid, _target in diff.jumps_removed:
        jumps.pop(bid, None)
    for bid, target in diff.jumps_added:
        jumps[bid] = target
    return jumps


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_layout(
    program: Program,
    profile: EdgeProfile,
    layout: ProgramLayout,
    seed: int = 0,
    label: str = "aligned",
    decisions: Optional[DecisionTrace] = None,
) -> OracleReport:
    """Differentially verify one aligned layout against the original.

    A one-layout :func:`verify_alignments`: ``profile`` must be the edge
    profile the aligner consumed, and ``decisions`` the program's
    decision trace (captured with ``seed`` when omitted).
    """
    return verify_alignments(
        program, profile, {label: layout}, seed=seed, decisions=decisions
    )[0]


def alignment_layouts(
    program: Program,
    profile: EdgeProfile,
    window: int = 15,
    models: Sequence[str] = ("fallthrough", "btfnt", "likely", "pht", "btb"),
    include_greedy: bool = True,
    include_greedy_btfnt: bool = True,
    min_weight: int = 2,
    algorithms: Optional[Sequence[str]] = None,
) -> Dict[str, ProgramLayout]:
    """The labelled layouts a Tables-3/4 style run produces.

    Every non-identity algorithm in the aligner registry contributes its
    variants' layouts, keyed by variant label ("greedy", "greedy-btfnt",
    "try15-pht", "exttsp", ...), so new registrations flow through the
    differential oracle and the bisimulation prover without changes
    here.  ``algorithms`` restricts the set (None = whole registry); the
    legacy ``models``/``include_greedy``/``include_greedy_btfnt`` knobs
    shape the architecture mask handed to the planner, preserving the
    historical label set for existing callers.
    """
    full_mask = tuple(a for served in TRY_MODEL_ARCHS.values() for a in served)
    greedy_mask = tuple(
        a
        for a in full_mask
        if (include_greedy_btfnt if a == "btfnt" else include_greedy)
    )
    try_mask = tuple(a for m in models for a in TRY_MODEL_ARCHS[m])

    layouts: Dict[str, ProgramLayout] = {}
    names = tuple(algorithms) if algorithms is not None else aligner_names()
    for name in names:
        spec = get_spec(name)
        if spec.identity:
            continue  # the original layout is the oracle's baseline
        if spec.cost_models:
            mask = try_mask
        elif name == "greedy":
            mask = greedy_mask
        else:
            mask = full_mask
        plan = spec.plan(mask, window=window, min_weight=min_weight)
        for variant in plan.variants:
            layouts[variant.label] = variant.aligner.align(program, profile)
    return layouts


def verify_alignments(
    program: Program,
    profile: EdgeProfile,
    layouts: Dict[str, ProgramLayout],
    seed: int = 0,
    decisions: Optional[DecisionTrace] = None,
) -> List[OracleReport]:
    """Verify several labelled layouts against one shared baseline.

    The program executes at most once: its decision trace is captured
    with ``seed`` (unless ``decisions`` hands one in) and bound to the
    original image once and to each distinct aligned image once, so N
    layouts cost one capture and baseline/aligned comparability is by
    construction.  Labels whose layouts are equal
    (:func:`~repro.isa.layout.layout_key`) link to one image and share
    its verdict; a faulted layout is new content and is judged on its
    own.  One report per label, in input order.
    """
    if decisions is None:
        decisions = capture_decisions(program, seed=seed)
    counts = decisions.counts
    identity = ProgramLayout.identity(program)
    base = _Image(link(identity), decisions)
    id_cond = _observed_edits(program, base.lowered)[0]
    kinds = {
        (proc.name, bid): proc.block(bid).kind
        for proc in program
        for bid in proc.blocks
    }
    edge_counts: Dict[Tuple[str, BlockId, BlockId], int] = {}
    for edge, count in zip(base.edges, counts):
        if edge is not None and count:
            edge_counts[edge] = edge_counts.get(edge, 0) + count
    flow = _check_flow_conservation(profile, edge_counts)
    blocks_compared = 1 + sum(
        count for entered, count in zip(base.entered, counts) if entered is not None
    )
    edges_replayed = sum(edge_counts.values())

    reports: Dict[str, OracleReport] = {}
    for label, layout, twin in layout_twins(layouts):
        if twin is not None:
            divergences = list(reports[twin].divergences)
        else:
            aligned = _Image(link(layout), decisions)
            blocks, senses, replays = _locate(decisions, (
                ("block-sequence", 1, base.entered, _block_failures(base, aligned)),
                ("branch-sense", 0, base.cond, _sense_failures(base, aligned, layout)),
                ("address-replay", 0, base.edges,
                 _replay_failures(kinds, base, aligned.lowered)),
            ))
            edits = _check_edit_agreement(
                program, layout, aligned.lowered, identity, base.lowered, id_cond
            )
            divergences = blocks + senses + list(flow) + replays + edits
        reports[label] = OracleReport(
            label=label,
            blocks_compared=blocks_compared,
            edges_replayed=edges_replayed,
            divergences=divergences,
        )
    return list(reports.values())
