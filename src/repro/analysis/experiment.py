"""The Tables 3 & 4 experiment driver.

For one benchmark this runs the paper's full methodology:

1. trace the original binary once to collect an edge profile (ATOM pass);
2. simulate the original layout against all seven architectures;
3. iterate the aligner registry (:mod:`repro.core.registry`): every
   registered algorithm plans its concrete variants for the requested
   architectures — Greedy fields a highest-executed-first variant plus
   the Pettis–Hansen precedence-order variant for BT/FNT (section 6.1),
   Try15 fields one windowed search per architecture cost model ("the
   cost model algorithm is different for each architecture"), and the
   modern arena entries (ext-TSP, disptree) field one
   architecture-blind layout each;
4. align every variant, then link and simulate it on the architectures
   it serves, replaying one shared decision trace; variants whose
   layouts are equal (:func:`~repro.isa.layout.layout_key`) share one
   image, replayed once per architecture; architectures an algorithm
   cannot serve are recorded as structured skips rather than silently
   omitted;
5. report relative CPI = (aligned instructions + BEP) / original
   instructions, plus the fall-through percentage of executed
   conditionals.

The driver has no per-algorithm code: registering a new
:class:`~repro.core.registry.AlignerSpec` is enough to enter it in
every experiment and tournament.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..cfg import Program
from ..core.align import Aligner
from ..core.registry import ALIGNER_KEYS, TRY_MODEL_ARCHS, plan_algorithms
from ..isa.encoder import LinkedProgram, link, link_identity
from ..isa.layout import ProgramLayout, layout_key
from ..profiling import EdgeProfile
from ..sim.decisions import DecisionTrace, capture_decisions
from ..sim.metrics import ALL_ARCHS, SimulationReport, make_arch_sims, simulate
from ..workloads import SUITE, generate_benchmark

__all__ = [
    "ALIGNER_KEYS",
    "TRY_MODEL_ARCHS",
    "ArchOutcome",
    "BenchmarkExperiment",
    "category_average",
    "make_arch_sims",
    "run_benchmark_experiment",
    "run_suite_experiment",
]


def checked_link(layout: ProgramLayout, validate: bool) -> LinkedProgram:
    """Link one aligned layout; with ``validate``, check the layout
    before and the address map after (see :mod:`repro.runner.validate`)."""
    if not validate:
        return link(layout)
    from ..runner.validate import validate_layout, validate_linked

    validate_layout(layout)
    linked = link(layout)
    validate_linked(linked)
    return linked


def run_aligner(aligner: Aligner, program: Program, profile: EdgeProfile) -> ProgramLayout:
    """``aligner.align(program, profile)``; an exception escaping it
    fails its unit at the runner's ``align`` stage (a stage it already
    names is kept)."""
    try:
        return aligner.align(program, profile)
    except BaseException as exc:
        from ..runner.errors import annotate_stage

        annotate_stage(exc, "align")
        raise


@dataclass
class ArchOutcome:
    """One (aligner, architecture) cell of Tables 3/4."""

    relative_cpi: float
    percent_fallthrough: float
    bep: int
    instructions: int
    cond_accuracy: float


@dataclass
class BenchmarkExperiment:
    """All aligner x architecture outcomes for one benchmark."""

    name: str
    category: str
    original_instructions: int
    #: outcomes[aligner_key][arch_name]
    outcomes: Dict[str, Dict[str, ArchOutcome]] = field(default_factory=dict)
    #: skips[aligner_key][arch_name] -> structured reason the registry
    #: gave for not fielding that algorithm on that architecture.
    skips: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def cell(self, aligner: str, arch: str) -> ArchOutcome:
        """The outcome for one (aligner, architecture) table cell."""
        return self.outcomes[aligner][arch]


def _report_outcomes(
    report: SimulationReport,
    arch_names: Iterable[str],
    original_instructions: int,
) -> Dict[str, ArchOutcome]:
    out = {}
    for arch in arch_names:
        result = report.arch[arch]
        out[arch] = ArchOutcome(
            relative_cpi=report.relative_cpi(arch, original_instructions),
            percent_fallthrough=report.percent_fallthrough,
            bep=result.bep,
            instructions=report.instructions,
            cond_accuracy=result.cond_accuracy,
        )
    return out


def run_benchmark_experiment(
    name: str,
    program: Optional[Program] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    min_weight: int = 2,
    archs: Sequence[str] = ALL_ARCHS,
    profile: Optional[EdgeProfile] = None,
    validate: bool = False,
    trace: Optional[DecisionTrace] = None,
    replay_check: Optional[bool] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
    layouts: Optional[Dict[str, ProgramLayout]] = None,
) -> BenchmarkExperiment:
    """Run the full Tables 3/4 methodology for one benchmark.

    ``program`` overrides the suite workload (used by tests to run the
    methodology on arbitrary programs; the category then reads "custom").
    ``profile`` reuses an already-collected edge profile instead of
    re-tracing (the resilient runner collects, fault-checks and validates
    the profile before handing it in).  ``validate`` runs the stage
    checks of :mod:`repro.runner.validate`: the profile checks on a
    profile derived here (a handed-in ``profile`` is its caller's to
    validate), then the layout check before and the address-map check
    after each link.

    ``algorithms`` selects which registered aligners compete (default:
    every algorithm in the registry).  Each algorithm's registry spec
    plans its variants for ``archs``; architectures it cannot serve land
    in :attr:`BenchmarkExperiment.skips` with the registry's reason.

    The workload's decisions are captured **once** (or handed in as
    ``trace``) and replayed through every distinct image — N aligned
    binaries cost one execution, and a variant whose layout equals an
    earlier one (or the original) replays only the architectures that
    image has not been replayed on.  The edge profile then comes
    straight from the trace (bit for bit what a profiling run records).
    ``replay_check`` (or ``REPRO_REPLAY_CHECK=1``) also executes every
    layout and asserts the replayed report is identical.

    ``profile_source`` selects what the *aligners* see: ``"measured"``
    (default) hands them the traced edge profile; ``"static"`` hands
    them a :class:`~repro.profiling.StaticProfile` predicted from
    program structure alone.  Everything else — the measured profile
    driving the simulators, the decision trace, the relative-CPI
    denominator — is unchanged, so static-profile results are evaluated
    against the *real* execution, which is exactly the cross-validation
    the profile-free claim needs.

    ``layouts``, when given, receives every measured aligned layout
    keyed by its variant label ("greedy", "try15-pht", "exttsp", ...) —
    what the runner hands its oracle and prover.
    """
    if profile_source not in ("measured", "static"):
        raise ValueError(
            f"profile_source must be 'measured' or 'static', got {profile_source!r}"
        )
    if program is None:
        program = generate_benchmark(name, scale)
        category = SUITE[name].category
    else:
        category = SUITE[name].category if name in SUITE else "custom"
    archs = tuple(archs)
    if trace is None:
        trace = capture_decisions(program, seed=seed)
    if profile is None:
        profile = trace.edge_profile(program)
        if validate:
            from ..runner.validate import validate_profile

            validate_profile(program, profile)

    if profile_source == "static":
        from ..profiling import StaticProfile

        align_profile: EdgeProfile = StaticProfile.from_program(program)
    else:
        align_profile = profile

    experiment = BenchmarkExperiment(name=name, category=category, original_instructions=0)

    # The original layout is simulated unconditionally: it is both the
    # identity algorithm's result and the relative-CPI denominator.
    orig_linked = link_identity(program)
    orig_report = simulate(
        orig_linked,
        profile,
        archs=make_arch_sims(archs, orig_linked, profile),
        seed=seed,
        trace=trace,
        replay_check=replay_check,
    )
    base = orig_report.instructions
    experiment.original_instructions = base

    # Equal layouts link to byte-identical images, so each image is
    # replayed once per architecture: the report of an image (by
    # layout_key) grows by the architectures a later twin still needs.
    # The original image seeds the table for every architecture.  Each
    # distinct aligned layout is still checked and linked at least once.
    replays: Dict[bytes, SimulationReport] = {layout_key(orig_linked.layout): orig_report}
    checked: Set[bytes] = set()
    for plan in plan_algorithms(algorithms, archs, window=window, min_weight=min_weight):
        bucket = experiment.outcomes.setdefault(plan.spec.name, {})
        if plan.skips:
            experiment.skips[plan.spec.name] = dict(plan.skips)
        if plan.spec.identity:
            served = tuple(a for v in plan.variants for a in v.archs)
            bucket.update(_report_outcomes(orig_report, served, base))
            continue
        for variant in plan.variants:
            layout = run_aligner(variant.aligner, program, align_profile)
            if layouts is not None:
                layouts[variant.label] = layout
            key = layout_key(layout)
            report = replays.get(key)
            missing = tuple(
                a for a in variant.archs if report is None or a not in report.arch
            )
            if missing or key not in checked:
                checked.add(key)
                linked = checked_link(layout, validate)
                if missing:
                    fresh = simulate(
                        linked,
                        profile,
                        archs=make_arch_sims(missing, linked, profile),
                        seed=seed,
                        trace=trace,
                        replay_check=replay_check,
                    )
                    report = replays.setdefault(key, fresh)
                    report.arch.update(fresh.arch)
            bucket.update(_report_outcomes(report, variant.archs, base))

    return experiment


def run_suite_experiment(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    archs: Sequence[str] = ALL_ARCHS,
    runner: Optional[object] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
) -> List[BenchmarkExperiment]:
    """Run the experiment across several benchmarks (default: all 24).

    The run goes through :func:`repro.runner.run_units`.  Without a
    ``runner`` config it runs in-process and fails fast on the first
    error, with invariant validation at every stage boundary.  A
    :class:`repro.runner.RunnerConfig` sets the per-unit switches
    (oracle, prover, lint, ...) and the inline retry policy; lost
    benchmarks are then dropped unless ``fail_fast`` re-raises them —
    use :func:`repro.runner.run_suite_resilient` directly to also see
    the failure records.  A :class:`repro.fabric.FabricConfig` runs the
    units isolated through the fault-tolerant fabric (supervised
    workers, per-unit wall-clock budget, durable queue).  ``algorithms``
    restricts the competing aligners (default: the whole registry) and
    is threaded through both execution paths.
    """
    from ..runner import RunnerConfig, run_suite_resilient

    result = run_suite_resilient(
        names, scale=scale, seed=seed, window=window, archs=archs,
        config=runner if runner is not None else RunnerConfig(fail_fast=True),
        algorithms=algorithms, profile_source=profile_source,
    )
    return result.results


def category_average(
    experiments: Sequence[BenchmarkExperiment],
    category: str,
    aligner: str,
    arch: str,
) -> float:
    """Arithmetic mean of relative CPI across one category (Table style)."""
    values = [
        e.cell(aligner, arch).relative_cpi
        for e in experiments
        if e.category == category and arch in e.outcomes.get(aligner, {})
    ]
    if not values:
        raise ValueError(f"no experiments in category {category!r} for {aligner}/{arch}")
    return sum(values) / len(values)
