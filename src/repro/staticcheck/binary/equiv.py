"""Static equivalence proofs between recovered binary CFGs.

The prover establishes a bisimulation between the CFG recovered from the
*original* linked image and the CFG recovered from an *aligned* image,
modulo exactly the rewrites branch alignment is allowed to make:

* **block permutation** — correspondence is by behaviour, never address;
* **branch-sense inversion** — a conditional site's two out-chains are
  compared as an unordered pair;
* **jump insertion/deletion** — unconditional branches are treated as
  unobservable glue and elided from the observation chains.

The observable alphabet is everything alignment must *preserve*: runs of
straight-line operations (counted, coalesced across recovered-block
boundaries, since recovery may merge blocks a layout made adjacent),
direct calls (by callee symbol), indirect calls, and the three
control-site kinds (conditional branch, indirect jump, return).

The proof itself is a Kanellakis-Smolka partition refinement over the
disjoint union of both sides' control sites, followed by a product-graph
walk that emits a *checkable artifact*: per-procedure block
correspondences (with inversion flags) plus an edge witness list.
:func:`check_proof` re-validates an artifact as a bisimulation against the
two recovered CFGs without re-running refinement — an independent,
much simpler checker in the classic translation-validation style.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ...isa.encoder import LinkedProgram, link_identity
from ...isa.instructions import Opcode
from ...isa.layout import ProgramLayout, layout_twins
from .recover import (
    BinaryImage,
    RecoveredBlock,
    RecoveredCFG,
    RecoveredProcedure,
    RecoveryError,
    recover,
)

PROOF_SCHEMA_VERSION = 1

#: Chain kinds with no terminal control site.
_TERMINAL_KINDS = ("fall-off-end", "divergent", "external")

_SITE_KINDS: Dict[Opcode, str] = {
    Opcode.COND_BRANCH: "cond",
    Opcode.INDIRECT_JUMP: "indirect",
    Opcode.RETURN: "return",
}


class EquivalenceError(ValueError):
    """A proof artifact does not certify a bisimulation."""


@dataclass(frozen=True)
class _Chain:
    """A maximal observation sequence ending at a control site.

    ``observables`` is the coalesced run of ``ops:N`` / ``call:SYM`` /
    ``icall`` tokens collected while walking from the chain's start
    through fall-throughs and unconditional branches.  ``site`` is the
    start address of the terminating control-site block, or ``None`` for
    the terminal kinds (fall-off-end, divergent, external).
    """

    observables: Tuple[str, ...]
    kind: str
    site: Optional[int]


class _Side:
    """Per-procedure chain cache and control-site index for one image.

    ``elide`` names conditional sites to treat as unobservable glue: the
    walk silently continues along their fall-through successor instead
    of stopping.  Elision is how *melding* proofs absorb a conditional
    the transform removed — sound only for sites whose two arms are
    observationally identical, which :func:`check_proof` re-verifies
    from the claimed set in the artifact (see :func:`_site_is_trivial`).
    """

    def __init__(
        self,
        cfg: RecoveredCFG,
        proc: RecoveredProcedure,
        elide: FrozenSet[int] = frozenset(),
    ):
        self.cfg = cfg
        self.proc = proc
        self.elide = elide
        self.sites: Dict[int, RecoveredBlock] = {
            block.start: block
            for block in proc.blocks
            if block.kind in _SITE_KINDS
        }
        self._chains: Dict[int, _Chain] = {}

    def site_kind(self, address: int) -> str:
        kind = self.sites[address].kind
        assert kind is not None
        return _SITE_KINDS[kind]

    def chain(self, address: int) -> _Chain:
        cached = self._chains.get(address)
        if cached is None:
            cached = self._walk(address)
            self._chains[address] = cached
        return cached

    def _walk(self, start: int) -> _Chain:
        observables: List[str] = []
        ops = 0

        def flush() -> None:
            nonlocal ops
            if ops:
                observables.append(f"ops:{ops}")
                ops = 0

        visited: Set[int] = set()
        address = start
        while True:
            if address == self.proc.end:
                flush()
                return _Chain(tuple(observables), "fall-off-end", None)
            if not self.proc.has_block_at(address):
                flush()
                observables.append(f"external:{address:#x}")
                return _Chain(tuple(observables), "external", None)
            if address in visited:
                flush()
                return _Chain(tuple(observables), "divergent", None)
            visited.add(address)
            block = self.proc.block_at(address)
            body = block.instructions
            if block.kind is not None:
                body = body[:-1]
            for instruction in body:
                if instruction.opcode is Opcode.OP:
                    ops += 1
                elif instruction.opcode is Opcode.CALL:
                    flush()
                    target = instruction.target
                    assert target is not None
                    callee = self.cfg.callee_name(target)
                    label = callee if callee is not None else f"@{target:#x}"
                    observables.append(f"call:{label}")
                elif instruction.opcode is Opcode.INDIRECT_CALL:
                    flush()
                    observables.append("icall")
                else:
                    # A mid-block control transfer would contradict the
                    # leader rules recovery was built on.
                    flush()
                    observables.append(f"stray:{instruction.opcode.value}")
            if block.kind is None:
                assert block.fall_target is not None
                address = block.fall_target
                continue
            if block.kind is Opcode.UNCOND_BRANCH:
                # Unobservable glue: follow silently.
                target = block.taken_target
                assert target is not None
                address = target
                continue
            if (
                block.kind is Opcode.COND_BRANCH
                and block.start in self.elide
                and block.fall_target is not None
            ):
                # Elided trivial conditional: both arms are observably
                # identical, so following the fall-through loses nothing.
                address = block.fall_target
                continue
            flush()
            return _Chain(
                tuple(observables), _SITE_KINDS[block.kind], block.start
            )

    def cond_chains(self, address: int) -> Tuple[_Chain, _Chain]:
        """(taken-chain, fall-chain) of a conditional control site."""
        block = self.sites[address]
        assert block.kind is Opcode.COND_BRANCH
        assert block.taken_target is not None
        taken = self.chain(block.taken_target)
        if block.fall_target is None:
            fall = _Chain((), "fall-off-end", None)
        else:
            fall = self.chain(block.fall_target)
        return taken, fall


def _site_is_trivial(side: _Side, address: int) -> bool:
    """Is this conditional's choice unobservable (under ``side.elide``)?

    True when both successor chains carry identical observables and are
    dynamically interchangeable: they converge on the *same* control
    site, or both terminate in a return (whose equal bodies are already
    part of the compared observables).  Divergent / external / fall-off
    ends never qualify.
    """
    block = side.sites.get(address)
    if block is None or block.kind is not Opcode.COND_BRANCH:
        return False
    taken, fall = side.cond_chains(address)
    if taken.observables != fall.observables or taken.kind != fall.kind:
        return False
    if taken.site is not None and taken.site == fall.site:
        return True
    return taken.kind == "return"


def _trivial_elision(cfg: RecoveredCFG, proc: RecoveredProcedure) -> FrozenSet[int]:
    """A self-supporting set of elidable conditional sites.

    :func:`_site_is_trivial` is *not* monotone in the elision set:
    eliding a non-trivial conditional (a loop header, say) reroutes
    other sites' chains around the loop and back into themselves, so a
    sweep that starts from every conditional can poison — and then
    discard — sites that are genuinely trivial on their own.  Instead,
    grow the set inside-out: repeatedly admit sites whose arms are
    observationally identical under the current set, so innermost melded
    diamonds enter first and enable the diamonds that enclose them.
    Then prune back to a post-fixpoint of :func:`_site_is_trivial`
    (later admissions can perturb earlier ones), which is exactly what
    the coinductive reading of bisimilarity needs — and exactly what
    :func:`check_proof` re-verifies for a claimed set.
    """
    conds = frozenset(
        address
        for address, block in _Side(cfg, proc).sites.items()
        if block.kind is Opcode.COND_BRANCH
    )
    elide: FrozenSet[int] = frozenset()
    while True:
        side = _Side(cfg, proc, elide=elide)
        grown = elide | frozenset(
            a for a in conds - elide if _site_is_trivial(side, a)
        )
        if grown == elide:
            break
        elide = grown
    while True:
        side = _Side(cfg, proc, elide=elide)
        kept = frozenset(a for a in elide if _site_is_trivial(side, a))
        if kept == elide:
            return kept
        elide = kept


_State = Tuple[str, int]
_Descriptor = Tuple[Tuple[str, ...], str, Tuple[str, Any]]


def _descriptor(
    chain: _Chain, side: str, classes: Mapping[_State, int]
) -> _Descriptor:
    if chain.site is None:
        end: Tuple[str, Any] = ("terminal", chain.kind)
    else:
        end = ("class", classes[(side, chain.site)])
    return (chain.observables, chain.kind, end)


def _refine(original: _Side, aligned: _Side) -> Dict[_State, int]:
    """Partition both sides' control sites into bisimulation classes."""
    sides = {"original": original, "aligned": aligned}
    states: List[_State] = [
        (tag, address) for tag, side in sides.items() for address in side.sites
    ]
    classes: Dict[_State, int] = {}
    keys: Dict[Tuple[Any, ...], int] = {}
    for state in states:
        tag, address = state
        key: Tuple[Any, ...] = (sides[tag].site_kind(address),)
        classes[state] = keys.setdefault(key, len(keys))
    while True:
        signatures: Dict[_State, Tuple[Any, ...]] = {}
        for state in states:
            tag, address = state
            side = sides[tag]
            if side.site_kind(address) == "cond":
                taken, fall = side.cond_chains(address)
                pair = tuple(
                    sorted(
                        (
                            _descriptor(taken, tag, classes),
                            _descriptor(fall, tag, classes),
                        )
                    )
                )
            else:
                pair = ()
            signatures[state] = (classes[state], pair)
        keys = {}
        fresh: Dict[_State, int] = {}
        for state in states:
            fresh[state] = keys.setdefault(signatures[state], len(keys))
        if len(set(fresh.values())) == len(set(classes.values())):
            return fresh
        classes = fresh


def _chains_match(
    a: _Chain,
    b: _Chain,
    classes: Mapping[_State, int],
) -> bool:
    """Do two chains (original side vs aligned side) carry equal behaviour?"""
    if a.observables != b.observables or a.kind != b.kind:
        return False
    if (a.site is None) != (b.site is None):
        return False
    if a.site is None:
        return True
    assert b.site is not None
    return classes[("original", a.site)] == classes[("aligned", b.site)]


@dataclass(frozen=True)
class ProcedureProof:
    """The checkable per-procedure half of an equivalence proof."""

    name: str
    bisimilar: bool
    reason: str
    entry: Dict[str, Any]
    correspondences: Tuple[Dict[str, Any], ...]
    witnesses: Tuple[Dict[str, Any], ...]
    #: Conditional sites proved trivial and treated as glue (melding).
    elided_original: Tuple[int, ...] = ()
    elided_aligned: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "procedure": self.name,
            "bisimilar": self.bisimilar,
            "reason": self.reason,
            "entry": dict(self.entry),
            "correspondences": [dict(c) for c in self.correspondences],
            "witnesses": [dict(w) for w in self.witnesses],
            "elided_original": list(self.elided_original),
            "elided_aligned": list(self.elided_aligned),
        }


@dataclass(frozen=True)
class EquivalenceProof:
    """A full proof artifact: one :class:`ProcedureProof` per procedure."""

    label: str
    procedures: Tuple[ProcedureProof, ...]
    reason: str = ""

    @property
    def bisimilar(self) -> bool:
        return not self.reason and all(p.bisimilar for p in self.procedures)

    def failures(self) -> List[str]:
        out = [self.reason] if self.reason else []
        out.extend(
            f"{p.name}: {p.reason or 'not bisimilar'}"
            for p in self.procedures
            if not p.bisimilar
        )
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROOF_SCHEMA_VERSION,
            "label": self.label,
            "bisimilar": self.bisimilar,
            "reason": self.reason,
            "procedures": [p.to_dict() for p in self.procedures],
        }


def _entry_payload(
    entry_original: _Chain, entry_aligned: _Chain
) -> Dict[str, Any]:
    return {
        "observables": list(entry_original.observables),
        "kind": entry_original.kind,
        "original_site": entry_original.site,
        "aligned_site": entry_aligned.site,
        "aligned_observables": list(entry_aligned.observables),
        "aligned_kind": entry_aligned.kind,
    }


def _failed_procedure(
    name: str,
    reason: str,
    entry: Optional[Dict[str, Any]] = None,
) -> ProcedureProof:
    return ProcedureProof(
        name=name,
        bisimilar=False,
        reason=reason,
        entry=entry or {},
        correspondences=(),
        witnesses=(),
    )


def _prove_procedure(
    original: _Side, aligned: _Side
) -> ProcedureProof:
    name = original.proc.name
    classes = _refine(original, aligned)
    entry_original = original.chain(original.proc.entry)
    entry_aligned = aligned.chain(aligned.proc.entry)
    entry = _entry_payload(entry_original, entry_aligned)
    if not _chains_match(entry_original, entry_aligned, classes):
        return _failed_procedure(
            name, "entry observation chains are not equivalent", entry
        )

    correspondences: List[Dict[str, Any]] = []
    witnesses: List[Dict[str, Any]] = []
    paired: Set[Tuple[int, int]] = set()
    queue: List[Tuple[int, int]] = []
    if entry_original.site is not None and entry_aligned.site is not None:
        queue.append((entry_original.site, entry_aligned.site))

    def witness(
        pair: Tuple[int, int],
        original_edge: str,
        aligned_edge: str,
        chain_original: _Chain,
        chain_aligned: _Chain,
    ) -> None:
        witnesses.append(
            {
                "original_site": pair[0],
                "aligned_site": pair[1],
                "original_edge": original_edge,
                "aligned_edge": aligned_edge,
                "observables": list(chain_original.observables),
                "kind": chain_original.kind,
                "original_next": chain_original.site,
                "aligned_next": chain_aligned.site,
            }
        )

    while queue:
        pair = queue.pop(0)
        if pair in paired:
            continue
        paired.add(pair)
        site_original, site_aligned = pair
        kind = original.site_kind(site_original)
        if kind != aligned.site_kind(site_aligned):
            return _failed_procedure(
                name,
                f"site kind mismatch at {site_original:#x}/{site_aligned:#x}",
                entry,
            )
        inverted = False
        if kind == "cond":
            taken_o, fall_o = original.cond_chains(site_original)
            taken_a, fall_a = aligned.cond_chains(site_aligned)
            straight = _chains_match(taken_o, taken_a, classes) and _chains_match(
                fall_o, fall_a, classes
            )
            swapped = _chains_match(taken_o, fall_a, classes) and _chains_match(
                fall_o, taken_a, classes
            )
            if not straight and not swapped:
                return _failed_procedure(
                    name,
                    f"successor chains of {site_original:#x} and "
                    f"{site_aligned:#x} cannot be matched",
                    entry,
                )
            inverted = not straight
            if inverted:
                matches = ((taken_o, fall_a, "taken", "fall"),
                           (fall_o, taken_a, "fall", "taken"))
            else:
                matches = ((taken_o, taken_a, "taken", "taken"),
                           (fall_o, fall_a, "fall", "fall"))
            for chain_o, chain_a, edge_o, edge_a in matches:
                witness(pair, edge_o, edge_a, chain_o, chain_a)
                if chain_o.site is not None and chain_a.site is not None:
                    queue.append((chain_o.site, chain_a.site))
        correspondences.append(
            {
                "original": site_original,
                "aligned": site_aligned,
                "kind": kind,
                "inverted": inverted,
            }
        )
    return ProcedureProof(
        name=name,
        bisimilar=True,
        reason="",
        entry=entry,
        correspondences=tuple(correspondences),
        witnesses=tuple(witnesses),
        elided_original=tuple(sorted(original.elide)),
        elided_aligned=tuple(sorted(aligned.elide)),
    )


def prove_cfgs(
    original: RecoveredCFG,
    aligned: RecoveredCFG,
    label: str = "aligned",
    *,
    elide_trivial: bool = False,
) -> EquivalenceProof:
    """Prove the aligned recovered CFG bisimilar to the original one.

    With ``elide_trivial`` (the melding mode) conditional sites whose
    two arms are observationally identical are treated as glue on *both*
    sides, so a program that removed such a branch can still be paired
    with its original.  Alignment-only proofs keep the flag off: there,
    every conditional of the original must survive, and claim 15 relies
    on the prover rejecting any layout that drops one.
    """
    names_original = original.procedure_names()
    names_aligned = aligned.procedure_names()
    if names_original != names_aligned:
        return EquivalenceProof(
            label=label,
            procedures=(),
            reason=(
                f"procedure tables differ: {list(names_original)} vs "
                f"{list(names_aligned)}"
            ),
        )
    proofs: List[ProcedureProof] = []
    for name in names_original:
        proc_original = original.procedure(name)
        proc_aligned = aligned.procedure(name)
        elide_original: FrozenSet[int] = frozenset()
        elide_aligned: FrozenSet[int] = frozenset()
        if elide_trivial:
            elide_original = _trivial_elision(original, proc_original)
            elide_aligned = _trivial_elision(aligned, proc_aligned)
        side_original = _Side(original, proc_original, elide=elide_original)
        side_aligned = _Side(aligned, proc_aligned, elide=elide_aligned)
        proofs.append(_prove_procedure(side_original, side_aligned))
    return EquivalenceProof(label=label, procedures=tuple(proofs))


# ----------------------------------------------------------------------
# Independent proof checking
# ----------------------------------------------------------------------
def _check_procedure(
    payload: Mapping[str, Any],
    original: _Side,
    aligned: _Side,
) -> None:
    name = original.proc.name
    pairs: Dict[Tuple[int, int], bool] = {}
    for row in payload.get("correspondences", ()):
        pairs[(int(row["original"]), int(row["aligned"]))] = bool(
            row.get("inverted", False)
        )

    def ends_ok(chain_o: _Chain, chain_a: _Chain) -> bool:
        if chain_o.observables != chain_a.observables:
            return False
        if chain_o.kind != chain_a.kind:
            return False
        if (chain_o.site is None) != (chain_a.site is None):
            return False
        if chain_o.site is None:
            return True
        assert chain_a.site is not None
        return (chain_o.site, chain_a.site) in pairs

    entry_original = original.chain(original.proc.entry)
    entry_aligned = aligned.chain(aligned.proc.entry)
    if not ends_ok(entry_original, entry_aligned):
        raise EquivalenceError(f"{name}: entry chains do not correspond")
    for (site_original, site_aligned), inverted in pairs.items():
        if site_original not in original.sites:
            raise EquivalenceError(
                f"{name}: {site_original:#x} is not an original control site"
            )
        if site_aligned not in aligned.sites:
            raise EquivalenceError(
                f"{name}: {site_aligned:#x} is not an aligned control site"
            )
        kind = original.site_kind(site_original)
        if kind != aligned.site_kind(site_aligned):
            raise EquivalenceError(
                f"{name}: paired sites {site_original:#x}/{site_aligned:#x} "
                "have different kinds"
            )
        if kind != "cond":
            continue
        taken_o, fall_o = original.cond_chains(site_original)
        taken_a, fall_a = aligned.cond_chains(site_aligned)
        if inverted:
            checks = ((taken_o, fall_a), (fall_o, taken_a))
        else:
            checks = ((taken_o, taken_a), (fall_o, fall_a))
        for chain_o, chain_a in checks:
            if not ends_ok(chain_o, chain_a):
                raise EquivalenceError(
                    f"{name}: edge witness fails at pair "
                    f"{site_original:#x}/{site_aligned:#x}"
                )


def check_proof(
    payload: Mapping[str, Any],
    original: RecoveredCFG,
    aligned: RecoveredCFG,
) -> None:
    """Re-validate a proof artifact as a bisimulation, or raise.

    This is the independent checker: it trusts nothing but the block
    correspondences in ``payload`` and re-derives every observation chain
    from the two recovered CFGs.  A payload whose ``bisimilar`` flag is
    ``False`` is accepted as-is (a rejection needs no certificate).
    """
    if payload.get("schema") != PROOF_SCHEMA_VERSION:
        raise EquivalenceError(
            f"unsupported proof schema {payload.get('schema')!r}"
        )
    if not payload.get("bisimilar", False):
        return
    by_name = {
        str(row.get("procedure")): row
        for row in payload.get("procedures", ())
    }
    names = original.procedure_names()
    if names != aligned.procedure_names():
        raise EquivalenceError("procedure tables differ between the images")
    for name in names:
        row = by_name.get(name)
        if row is None:
            raise EquivalenceError(f"proof has no entry for procedure {name!r}")
        if not row.get("bisimilar", False):
            raise EquivalenceError(
                f"{name}: claimed bisimilar overall but procedure row is not"
            )
        elide_original = frozenset(
            int(a) for a in row.get("elided_original", ())
        )
        elide_aligned = frozenset(
            int(a) for a in row.get("elided_aligned", ())
        )
        side_original = _Side(
            original, original.procedure(name), elide=elide_original
        )
        side_aligned = _Side(
            aligned, aligned.procedure(name), elide=elide_aligned
        )
        # An elision claim is part of the certificate: every claimed
        # site must really be a trivial conditional *under the claimed
        # set* (a post-fixpoint check — the coinductive soundness
        # argument for treating the set as glue).
        for side, claimed in (
            (side_original, elide_original),
            (side_aligned, elide_aligned),
        ):
            for address in sorted(claimed):
                if not _site_is_trivial(side, address):
                    raise EquivalenceError(
                        f"{name}: claimed elided site {address:#x} is not "
                        "a trivial conditional"
                    )
        _check_procedure(row, side_original, side_aligned)


# ----------------------------------------------------------------------
# Driver over layouts
# ----------------------------------------------------------------------
def proof_key(benchmark: str, label: str) -> str:
    """Artifact-store key for one (benchmark, layout label) proof."""
    return f"proof/{benchmark}/{label}"


def _prove_layout(
    original: RecoveredCFG,
    layout: ProgramLayout,
    label: str,
    elide_trivial: bool,
) -> EquivalenceProof:
    """Link, recover and prove one layout; re-check a positive verdict."""
    try:
        aligned = recover(BinaryImage.from_linked(LinkedProgram(layout)))
    except (RecoveryError, ValueError) as exc:
        return EquivalenceProof(
            label=label, procedures=(), reason=f"recovery failed: {exc}"
        )
    proof = prove_cfgs(original, aligned, label=label, elide_trivial=elide_trivial)
    if proof.bisimilar:
        # A proof we cannot independently re-check is no proof at all.
        check_proof(proof.to_dict(), original, aligned)
    return proof


def _prove_each(
    original: RecoveredCFG,
    layouts: Mapping[str, ProgramLayout],
    store: Any,
    benchmark: str,
    elide_trivial: bool,
) -> Dict[str, EquivalenceProof]:
    """One proof per label, in input order; each distinct layout proved once.

    Labels with equal layouts (:func:`~repro.isa.layout.layout_key`)
    link to one image, so a later twin gets the first one's proof under
    its own label.  Each label's artifact is stored under its own key.
    """
    proofs: Dict[str, EquivalenceProof] = {}
    for label, layout, twin in layout_twins(layouts):
        if twin is not None:
            proof = replace(proofs[twin], label=label)
        else:
            proof = _prove_layout(original, layout, label, elide_trivial)
        proofs[label] = proof
        if store is not None and benchmark:
            store.put(proof_key(benchmark, label), proof.to_dict())
    return proofs


def prove_layouts(
    program: Any,
    layouts: Mapping[str, ProgramLayout],
    store: Any = None,
    benchmark: str = "",
) -> Dict[str, EquivalenceProof]:
    """Prove every aligned layout bisimilar to the identity layout.

    Links each distinct layout, recovers both CFGs from the raw
    instruction streams, runs the prover, and re-validates each positive
    verdict with the independent :func:`check_proof` checker before
    returning; equal layouts share one proof, relabelled.  A layout that
    cannot be linked or recovered gets a "recovery failed" rejection.
    When ``store`` is given (any object with the artifact-store ``put``
    surface), each label's proof artifact is persisted under
    ``proof/<benchmark>/<label>``.
    """
    original = recover(BinaryImage.from_linked(link_identity(program)))
    return _prove_each(original, layouts, store, benchmark, elide_trivial=False)


def prove_meld(
    original_program: Any,
    melded_program: Any,
    label: str = "meld",
) -> EquivalenceProof:
    """Prove a melded program bisimilar to its original (elision mode).

    Both programs are linked in identity layout, recovered, and proved
    with ``elide_trivial=True`` so the conditionals melding removed are
    absorbed as trivial glue.  Positive verdicts are re-validated with
    the independent checker before being returned.
    """
    original = recover(BinaryImage.from_linked(link_identity(original_program)))
    try:
        melded = recover(BinaryImage.from_linked(link_identity(melded_program)))
    except (RecoveryError, ValueError) as exc:
        return EquivalenceProof(
            label=label, procedures=(), reason=f"recovery failed: {exc}"
        )
    proof = prove_cfgs(original, melded, label=label, elide_trivial=True)
    if proof.bisimilar:
        check_proof(proof.to_dict(), original, melded)
    return proof


def prove_meld_layouts(
    original_program: Any,
    layouts: Mapping[str, ProgramLayout],
    store: Any = None,
    benchmark: str = "",
) -> Dict[str, EquivalenceProof]:
    """Prove layouts of a *melded* program against the original program.

    Like :func:`prove_layouts`, but the reference image comes from
    ``original_program`` (pre-meld) while each layout belongs to the
    melded program, and the prover runs in elision mode.  This is the
    claim-18 judgement: meld-then-align must still be bisimilar to the
    unmelded original.
    """
    original = recover(BinaryImage.from_linked(link_identity(original_program)))
    return _prove_each(original, layouts, store, benchmark, elide_trivial=True)
