"""The pluggable aligner registry: one enumeration point for algorithms.

Historically the algorithm set was hard-coded in four layers — the
experiment driver, the claims wiring, the CLI dispatch, and ad-hoc
architecture special cases ("Greedy orders chains by precedence on
BT/FNT").  This module replaces all of them with data:

* an :class:`AlignerSpec` describes one algorithm — its stable report
  name, provenance (which paper it comes from), the cost models it
  consumes, per-architecture compatibility flags with *structured skip
  reasons*, and a factory that plans concrete :class:`AlignerVariant`\\ s
  for a requested architecture set;
* :func:`register_aligner` adds a spec; everything downstream (the
  experiment driver, the tournament harness, the differential oracle,
  the bisimulation prover, the CLI) iterates the registry instead of
  naming algorithms.

Adding a new alignment algorithm is now one file: subclass
:class:`~repro.core.align.Aligner`, build an :class:`AlignerSpec`, call
:func:`register_aligner`.  The experiment driver, tournament, oracle,
prover and CLI pick it up without modification.

Variant planning subsumes the old special cases.  One algorithm may
field several concrete aligner instances, each serving a subset of the
simulated architectures: Greedy fields a highest-executed-first variant
for every architecture except BT/FNT plus a Pettis–Hansen
precedence-order variant for BT/FNT ("it is not known where the taken
branch will be located", section 6); TryN fields one variant per
architecture cost model.  Variants that differ only after chain building
share one chain build per procedure (:class:`~repro.core.align.PlanShare`):
greedy-btfnt reorders greedy's chains and the BT/FNT TryN variant
refines the LIKELY search.  A requested architecture no variant serves is
returned as a structured skip — a ``(architecture, reason)`` record the
experiment surfaces instead of silently omitting the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .align import Aligner, OriginalAligner, PlanShare
from .disptree import DispTreeAligner
from .exttsp import ExtTSPAligner
from .greedy import GreedyAligner
from .tryn import TryNAligner

#: Which simulated architectures each per-model TryN search serves.
TRY_MODEL_ARCHS: Dict[str, Tuple[str, ...]] = {
    "fallthrough": ("fallthrough",),
    "btfnt": ("btfnt",),
    "likely": ("likely",),
    "pht": ("pht-direct", "pht-correlation"),
    "btb": ("btb-64x2", "btb-256x4"),
}

#: The paper's own algorithm line-up, in table-column order.  The
#: Tables 3/4 renderers keep these columns; the registry may hold more.
ALIGNER_KEYS: Tuple[str, ...] = ("orig", "greedy", "try15")

#: Skip reason used when a requested architecture is not covered by any
#: variant of an algorithm (distinct from an explicit incompatibility).
_UNSERVED = "no registered variant of this algorithm serves the architecture"


@dataclass(frozen=True)
class PlanRequest:
    """What a caller asked an algorithm to cover."""

    archs: Tuple[str, ...]
    window: int = 15
    min_weight: int = 2


@dataclass(frozen=True)
class AlignerVariant:
    """One concrete aligner instance serving a subset of architectures.

    ``label`` is the per-layout identity used by the differential oracle
    and the bisimulation prover ("greedy-btfnt", "try15-pht", "exttsp");
    the owning spec's ``name`` is the experiment outcomes key the
    variants share.
    """

    label: str
    aligner: Aligner
    archs: Tuple[str, ...]


@dataclass(frozen=True)
class AlignerPlan:
    """An algorithm's concrete variants for one architecture request."""

    spec: "AlignerSpec"
    variants: Tuple[AlignerVariant, ...]
    #: Requested architectures no variant serves: arch -> reason.
    skips: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class AlignerSpec:
    """Registry metadata + factory for one alignment algorithm."""

    #: Stable report name; the experiment outcomes key.
    name: str
    #: Human-readable one-liner for reports and ``--help``.
    title: str
    #: Where the algorithm comes from (paper, year).
    provenance: str
    year: int
    #: Cost models the algorithm consumes; empty = architecture-blind.
    cost_models: Tuple[str, ...]
    #: Architectures the algorithm refuses, with the structured reason
    #: the experiment records instead of silently omitting the row.
    incompatible: Mapping[str, str]
    #: Plans the concrete variants for one request.  The request's
    #: ``archs`` already excludes the incompatible ones.
    factory: Callable[[PlanRequest], Sequence[AlignerVariant]]
    #: True for the no-op aligner whose layout is the original binary.
    identity: bool = False

    def plan(
        self, archs: Sequence[str], window: int = 15, min_weight: int = 2
    ) -> AlignerPlan:
        """Resolve the variants (and skips) for one architecture set."""
        requested = tuple(archs)
        skips: Dict[str, str] = {
            arch: self.incompatible[arch]
            for arch in requested
            if arch in self.incompatible
        }
        compatible = tuple(a for a in requested if a not in self.incompatible)
        variants: List[AlignerVariant] = []
        for variant in self.factory(PlanRequest(compatible, window, min_weight)):
            served = tuple(a for a in variant.archs if a in compatible)
            if served:
                variants.append(
                    AlignerVariant(variant.label, variant.aligner, served)
                )
        covered = {arch for variant in variants for arch in variant.archs}
        for arch in compatible:
            if arch not in covered:
                skips[arch] = _UNSERVED
        return AlignerPlan(spec=self, variants=tuple(variants), skips=skips)


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, AlignerSpec] = {}


def register_aligner(spec: AlignerSpec, replace: bool = False) -> AlignerSpec:
    """Add an algorithm to the registry (``replace=True`` to overwrite)."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"aligner {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_aligner(name: str) -> None:
    """Remove a registered algorithm (tests and plug-in teardown)."""
    _REGISTRY.pop(name, None)


def aligner_names() -> Tuple[str, ...]:
    """Every registered algorithm name, in registration order."""
    return tuple(_REGISTRY)


def get_spec(name: str) -> AlignerSpec:
    """The spec registered under ``name`` (ValueError when unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "none"
        raise ValueError(
            f"unknown aligner {name!r}; registered: {known}"
        ) from None


def plan_algorithms(
    algorithms: Optional[Sequence[str]],
    archs: Sequence[str],
    window: int = 15,
    min_weight: int = 2,
) -> List[AlignerPlan]:
    """Plan every requested algorithm (default: all registered)."""
    names = list(algorithms) if algorithms is not None else list(_REGISTRY)
    return [
        get_spec(name).plan(archs, window=window, min_weight=min_weight)
        for name in names
    ]


def make_aligner(
    name: str, arch: str = "btb", window: int = 15, min_weight: int = 2
) -> Aligner:
    """One concrete aligner instance of ``name`` for one cost-model arch.

    ``arch`` is a cost-model name (fallthrough/btfnt/likely/pht/btb);
    the algorithm's variant serving that model's simulated architectures
    is returned.  Architecture-blind algorithms ignore ``arch``.
    """
    if arch not in TRY_MODEL_ARCHS:
        raise ValueError(
            f"unknown cost-model architecture {arch!r}; "
            f"expected one of {', '.join(TRY_MODEL_ARCHS)}"
        )
    plan = get_spec(name).plan(
        TRY_MODEL_ARCHS[arch], window=window, min_weight=min_weight
    )
    if not plan.variants:
        reasons = "; ".join(f"{a}: {r}" for a, r in plan.skips.items())
        raise ValueError(f"aligner {name!r} serves no {arch!r} architecture ({reasons})")
    return plan.variants[0].aligner


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
def _orig_variants(request: PlanRequest) -> Sequence[AlignerVariant]:
    return [AlignerVariant("orig", OriginalAligner(), request.archs)]


def _greedy_variants(request: PlanRequest) -> Sequence[AlignerVariant]:
    """Pettis–Hansen Greedy: weight order everywhere, precedence on BT/FNT.

    This is the registry form of what used to be an ad-hoc exclusion in
    the experiment driver: the highest-executed-first variant serves
    every architecture except BT/FNT, whose branches want to point
    backward, served instead by the precedence-order variant
    (section 6.1).
    """
    variants: List[AlignerVariant] = []
    weight_archs = tuple(a for a in request.archs if a != "btfnt")
    if weight_archs:
        variants.append(
            AlignerVariant(
                "greedy", GreedyAligner(chain_order="weight"), weight_archs
            )
        )
    if "btfnt" in request.archs:
        variants.append(
            AlignerVariant(
                "greedy-btfnt", GreedyAligner(chain_order="btfnt"), ("btfnt",)
            )
        )
    # The two differ only in chain order: one chain build serves both.
    share = PlanShare()
    for variant in variants:
        share.join(variant.aligner, "greedy")
    return variants


def _tryn_variants(request: PlanRequest) -> Sequence[AlignerVariant]:
    """One windowed search per search cost model (paper section 4).

    BT/FNT searches with the LIKELY model and differs from the LIKELY
    variant only in its refinement (see ``TryNAligner.for_architecture``),
    so the two share one search; all the searches share each
    procedure's cyclic-edge set and window partition.
    """
    variants: List[AlignerVariant] = []
    share = PlanShare()
    for model, served in TRY_MODEL_ARCHS.items():
        wanted = tuple(a for a in served if a in request.archs)
        if not wanted:
            continue
        aligner = TryNAligner.for_architecture(
            model, window=request.window, min_weight=request.min_weight
        )
        share.join(aligner, aligner.model.name)
        variants.append(
            AlignerVariant(f"try{request.window}-{model}", aligner, wanted)
        )
    return variants


def _exttsp_variants(request: PlanRequest) -> Sequence[AlignerVariant]:
    return [AlignerVariant("exttsp", ExtTSPAligner(), request.archs)]


def _disptree_variants(request: PlanRequest) -> Sequence[AlignerVariant]:
    return [AlignerVariant("disptree", DispTreeAligner(), request.archs)]


register_aligner(AlignerSpec(
    name="orig",
    title="original compiler layout (no alignment)",
    provenance="Calder & Grunwald, ASPLOS 1994 (baseline)",
    year=1994,
    cost_models=(),
    incompatible={},
    factory=_orig_variants,
    identity=True,
))

register_aligner(AlignerSpec(
    name="greedy",
    title="Pettis-Hansen bottom-up chain merging",
    provenance="Pettis & Hansen, PLDI 1990",
    year=1990,
    cost_models=(),
    incompatible={},
    factory=_greedy_variants,
))

register_aligner(AlignerSpec(
    name="try15",
    title="windowed exhaustive search per architecture cost model",
    provenance="Calder & Grunwald, ASPLOS 1994",
    year=1994,
    cost_models=tuple(TRY_MODEL_ARCHS),
    incompatible={},
    factory=_tryn_variants,
))

register_aligner(AlignerSpec(
    name="exttsp",
    title="extended-TSP chain merging (fall-through + short-jump score)",
    provenance="Newell & Pupyrev, 'Improved Basic Block Reordering', 2018",
    year=2018,
    cost_models=(),
    incompatible={},
    factory=_exttsp_variants,
))

register_aligner(AlignerSpec(
    name="disptree",
    title="decision-tree trace growth along highest-probability edges",
    provenance="Baer, 'On Conditional Branches in Optimal Decision Trees'",
    year=2006,
    cost_models=(),
    incompatible={},
    factory=_disptree_variants,
))
