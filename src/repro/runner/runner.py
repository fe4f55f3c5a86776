"""The resilient experiment runner.

Wraps the per-benchmark experiment units of ``analysis.experiment`` and
``analysis.figure4`` with the reliability properties of a batch service.
:func:`run_units` is the one place that picks an executor:

* **inline** (the default, used by the library entry points) — units
  run one after another in this process; transient failures re-run up
  to ``RetryPolicy.max_attempts`` times with exponential backoff +
  jitter;
* **the fabric** (a :class:`repro.fabric.FabricConfig`) — units run
  isolated in supervised worker processes off a durable lease queue
  (see :mod:`repro.fabric`): a crash, hang or OOM-kill in one benchmark
  becomes a structured :class:`BenchmarkFailure` record instead of
  killing the suite; ``FabricConfig.timeout`` kills units that overrun
  their wall-clock budget; with a ``queue_dir`` every finished unit is
  checkpointed and an interrupted run resumes where it stopped.

Either way every unit gets the same per-unit switches:

* **invariant validation** — profile, layout and address-map checks run
  at stage boundaries (see :mod:`repro.runner.validate`);
* **static lint** — with ``lint=True`` the verifier passes of
  :mod:`repro.staticcheck` run over each unit's CFG and profile after
  profiling and before alignment; error-severity findings fail the
  unit's ``lint`` stage as :class:`ValidationError` (never retried);
* **differential verification** — with ``oracle=True`` every unit
  additionally replays its trace on each aligned layout and requires
  trace isomorphism (see :mod:`repro.oracle`); a divergence is a
  :class:`ValidationError`, failed immediately and never retried;
* **artifact custody** — with ``store`` set, unit results are persisted
  through the crash-safe checksummed :class:`~repro.runner.store.ArtifactStore`
  and re-verified on write; a result restored from a resumed queue is
  written again, so a damaged store copy heals;
* **explicit degradation** — a run that lost benchmarks returns
  ``partial`` results plus a per-benchmark failure table; it is never
  silent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiment import (
    ArchOutcome,
    BenchmarkExperiment,
    run_benchmark_experiment,
)
from ..analysis.figure4 import Figure4Row, run_figure4_program
from ..sim.alpha import AlphaConfig
from ..sim.decisions import load_or_capture, trace_fingerprint, trace_key
from ..sim.metrics import ALL_ARCHS
from ..workloads import SUITE, FIGURE4_PROGRAMS, generate_benchmark
from .errors import (
    CheckpointError,
    FatalError,
    TransientError,
    ValidationError,
    annotate_stage,
    classify,
    stage_of,
)
from .faults import FaultInjector, FaultPlan
from .retry import RetryPolicy, retry_rng
from .store import ArtifactCorruptError, ArtifactStore
from .validate import validate_profile

if TYPE_CHECKING:  # the fabric is imported only when a run goes through it
    from ..fabric.workers import FabricConfig


# ----------------------------------------------------------------------
# Configuration and result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunnerConfig:
    """The per-unit switches of a suite run, plus the inline retry policy.

    The default configuration runs units inline (no subprocess) with
    validation on — the cheapest mode, used by the library entry
    points.  Isolation, timeouts and checkpoint/resume come from
    handing :func:`run_units` a :class:`repro.fabric.FabricConfig`.
    """

    #: Inline retry policy for transient failures (the fabric has its own).
    retry: RetryPolicy = RetryPolicy()
    #: Run invariant validation at stage boundaries.
    validate: bool = True
    #: Deterministic fault-injection plan (tests/demos only).
    faults: Optional[FaultPlan] = None
    #: Re-raise the first failure instead of recording it (legacy mode,
    #: inline only).
    fail_fast: bool = False
    #: Differentially verify every aligned layout (see ``repro.oracle``).
    oracle: bool = False
    #: Statically prove every aligned layout bisimilar to the original
    #: binary (see ``repro.staticcheck.binary``); no execution involved.
    prove: bool = False
    #: Run the static verifier passes (``repro.staticcheck``) over each
    #: unit's CFG and profile before alignment; findings of error
    #: severity fail the unit's ``lint`` stage as ValidationErrors.
    lint: bool = False
    #: Apply every analyzer-approved branch meld right after workload
    #: generation (``repro.transforms.meld``); with ``lint`` the
    #: RL018–RL021 audit passes verify the transcript.
    meld: bool = False
    #: Directory of the crash-safe artifact store (None disables it).
    store: Optional[Union[str, Path]] = None
    #: Differentially check every replay against a fresh execution
    #: (slow; equivalent to ``REPRO_REPLAY_CHECK=1``).
    replay_check: bool = False
    #: Directory of the decision-trace cache (None captures in memory,
    #: once per unit, with no cross-run reuse).
    trace_cache: Optional[Union[str, Path]] = None


@dataclass
class BenchmarkFailure:
    """One benchmark the suite permanently lost, with why and where."""

    benchmark: str
    stage: str
    kind: str  # transient | validation | timeout | crash | poison | drained | fatal | error
    message: str
    attempts: int
    retryable: bool
    #: The underlying exception when available (inline runs only).
    error: Optional[BaseException] = field(default=None, repr=False, compare=False)


@dataclass
class SuiteRunResult:
    """Everything a resilient suite run produced, losses included."""

    #: Completed unit results (``BenchmarkExperiment`` or ``Figure4Row``),
    #: in requested benchmark order.
    results: List[object]
    failures: List[BenchmarkFailure]
    #: Benchmarks restored from the checkpoint queue instead of re-run.
    skipped: List[str]
    #: Benchmarks actually executed this run.
    executed: List[str]
    checkpoint: Optional[Path] = None

    @property
    def partial(self) -> bool:
        """True when at least one benchmark was lost."""
        return bool(self.failures)


# ----------------------------------------------------------------------
# The unit of work (picklable — it crosses the process boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitTask:
    """One benchmark's profile+align+simulate unit."""

    kind: str  # "experiment" | "figure4"
    benchmark: str
    scale: float = 1.0
    seed: int = 0
    window: int = 15
    archs: Tuple[str, ...] = ALL_ARCHS
    min_weight: int = 2
    validate: bool = True
    attempt: int = 1
    faults: Optional[FaultPlan] = None
    alpha_config: Optional[AlphaConfig] = None
    oracle: bool = False
    prove: bool = False
    lint: bool = False
    meld: bool = False
    replay_check: bool = False
    trace_cache: Optional[Union[str, Path]] = None
    #: Registered aligner names to compete (None = the whole registry).
    algorithms: Optional[Tuple[str, ...]] = None
    #: What the aligners see: the measured profile or a static prediction.
    profile_source: str = "measured"


@contextmanager
def _stage(name: str):
    """Annotate any escaping exception with the active pipeline stage."""
    try:
        yield
    except BaseException as exc:
        annotate_stage(exc, name)
        raise


def execute_unit(task: UnitTask) -> dict:
    """Run one benchmark unit and return its serialised payload.

    This is the function worker subprocesses execute; it regenerates the
    workload from the benchmark name (programs never cross the process
    boundary), applies any injected faults at stage boundaries, and
    validates invariants between stages.
    """
    injector = FaultInjector(task.faults)
    name, attempt = task.benchmark, task.attempt

    with _stage("generate"):
        injector.fire("generate", name, attempt)
        program = generate_benchmark(name, task.scale)

    meld_ctx = None
    if task.meld:
        with _stage("meld"):
            from ..transforms import meld_program

            original = program
            program, meld_report = meld_program(program)
            injector.fire("meld", name, attempt)
            if meld_report.applied:
                meld_ctx = (original, program, tuple(meld_report.applied))

    with _stage("trace"):
        trace_store = (
            ArtifactStore(task.trace_cache) if task.trace_cache is not None else None
        )
        capture = partial(
            load_or_capture, trace_store, program,
            workload=name, scale=task.scale, seed=task.seed, meld=task.meld,
        )
        trace, _hit = capture()
        if trace_store is not None:
            key = trace_key(
                name, trace_fingerprint(name, task.scale, task.seed, task.meld)
            )
            if injector.corrupt_trace(name, attempt, trace_store.path_for(key)):
                # A corrupt cache entry may cost a re-capture, never
                # correctness: the reload must quarantine the damaged
                # bytes and transparently capture a fresh trace.
                trace, _hit = capture()
        injector.fire("trace", name, attempt)

    with _stage("profile"):
        profile = injector.corrupt_profile(name, attempt, trace.edge_profile(program))
        injector.fire("profile", name, attempt)
        if task.validate:
            validate_profile(program, profile)

    with _stage("lint"):
        program = injector.break_cfg(name, attempt, program, profile)
        injector.fire("lint", name, attempt)
        if task.lint:
            from ..staticcheck import MeldContext, run_lint

            meld = None
            if meld_ctx is not None:
                meld = MeldContext(
                    original=meld_ctx[0],
                    melded=meld_ctx[1],
                    records=meld_ctx[2],
                )
            report = run_lint(program, profile, subject=name, meld=meld)
            if not report.ok:
                raise ValidationError(f"static lint failed — {report.summary()}")

    with _stage("align"):
        injector.fire("align", name, attempt)

    # The judges receive exactly the layouts the unit measured.
    layouts = {} if task.oracle or task.prove else None
    with _stage("simulate"):
        if task.kind == "experiment":
            experiment = run_benchmark_experiment(
                name,
                program=program,
                profile=profile,
                scale=task.scale,
                seed=task.seed,
                window=task.window,
                min_weight=task.min_weight,
                archs=task.archs,
                validate=task.validate,
                trace=trace,
                # Unset defers to REPRO_REPLAY_CHECK, as a bare simulate() does.
                replay_check=task.replay_check or None,
                algorithms=task.algorithms,
                profile_source=task.profile_source,
                layouts=layouts,
            )
            injector.fire("simulate", name, attempt)
            payload = {"unit": "experiment", "data": experiment_to_dict(experiment)}
        elif task.kind == "figure4":
            row = run_figure4_program(
                name,
                scale=task.scale,
                seed=task.seed,
                window=task.window,
                config=task.alpha_config or AlphaConfig(),
                program=program,
                profile=profile,
                validate=task.validate,
                layouts=layouts,
                trace=trace,
                replay_check=task.replay_check or None,
            )
            injector.fire("simulate", name, attempt)
            payload = {"unit": "figure4", "data": figure4_row_to_dict(row)}
        else:
            raise FatalError(f"unknown unit kind {task.kind!r}")

    if layouts is not None:
        # Fault-mutate the measured layouts once, so the dynamic oracle
        # and the static prover judge the *same* binaries.
        with _stage("oracle" if task.oracle else "prove"):
            injector.fire("layout", name, attempt)
            layouts = {
                label: injector.mutate_layout(name, attempt, label, layout, profile)
                for label, layout in layouts.items()
            }
        if task.oracle:
            with _stage("oracle"):
                _run_oracle(task, program, profile, layouts, trace)
        if task.prove:
            with _stage("prove"):
                _run_prove(task, program, layouts)
    return payload


def _run_oracle(task: UnitTask, program, profile, layouts, decisions) -> None:
    """Differentially verify every aligned layout of one unit.

    ``layouts`` already carries any scheduled layout fault, so an
    injected rewriter bug must flow through the oracle and surface as a
    ValidationError.  ``decisions`` is the unit's decision trace, so the
    oracle adds zero extra executions.
    """
    from ..oracle import summarize_failures, verify_alignments

    reports = verify_alignments(
        program, profile, layouts, seed=task.seed, decisions=decisions
    )
    failed = [report for report in reports if not report.passed]
    if failed:
        raise ValidationError(
            f"differential oracle: {len(failed)}/{len(reports)} layout(s) "
            f"not trace-isomorphic — {summarize_failures(reports)}"
        )


def _run_prove(task: UnitTask, program, layouts) -> None:
    """Statically prove every aligned layout bisimilar to the original.

    Recovery works from the raw linked instruction stream only; a layout
    whose binary cannot be proven equivalent fails the unit's ``prove``
    stage as a ValidationError — the static twin of the dynamic oracle.
    """
    from ..staticcheck.binary import prove_layouts

    proofs = prove_layouts(program, layouts, benchmark=task.benchmark)
    failed = {label: proof for label, proof in proofs.items() if not proof.bisimilar}
    if failed:
        details = "; ".join(
            f"{label}: {'; '.join(proof.failures()[:1]) or 'not bisimilar'}"
            for label, proof in sorted(failed.items())
        )
        raise ValidationError(
            f"translation validator: {len(failed)}/{len(proofs)} layout(s) "
            f"not bisimilar — {details}"
        )


# ----------------------------------------------------------------------
# Payload (de)serialisation — queue results and worker returns
# ----------------------------------------------------------------------
def experiment_to_dict(experiment: BenchmarkExperiment) -> dict:
    return {
        "name": experiment.name,
        "category": experiment.category,
        "original_instructions": experiment.original_instructions,
        "outcomes": {
            aligner: {
                arch: {
                    "relative_cpi": cell.relative_cpi,
                    "percent_fallthrough": cell.percent_fallthrough,
                    "bep": cell.bep,
                    "instructions": cell.instructions,
                    "cond_accuracy": cell.cond_accuracy,
                }
                for arch, cell in cells.items()
            }
            for aligner, cells in experiment.outcomes.items()
        },
        "skips": {
            aligner: dict(reasons)
            for aligner, reasons in experiment.skips.items()
        },
    }


def experiment_from_dict(data: dict) -> BenchmarkExperiment:
    try:
        return BenchmarkExperiment(
            name=data["name"],
            category=data["category"],
            original_instructions=data["original_instructions"],
            outcomes={
                aligner: {
                    arch: ArchOutcome(**cell) for arch, cell in cells.items()
                }
                for aligner, cells in data["outcomes"].items()
            },
            # Absent in pre-registry payloads; tolerate those.
            skips={
                aligner: dict(reasons)
                for aligner, reasons in data.get("skips", {}).items()
            },
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed experiment payload: {exc}") from exc


def figure4_row_to_dict(row: Figure4Row) -> dict:
    return {
        "name": row.name,
        "original_cycles": row.original_cycles,
        "greedy_cycles": row.greedy_cycles,
        "try15_cycles": row.try15_cycles,
    }


def figure4_row_from_dict(data: dict) -> Figure4Row:
    try:
        return Figure4Row(
            name=data["name"],
            original_cycles=data["original_cycles"],
            greedy_cycles=data["greedy_cycles"],
            try15_cycles=data["try15_cycles"],
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed figure4 payload: {exc}") from exc


def payload_to_result(payload: dict) -> object:
    """Rebuild the unit result object a payload dict describes."""
    unit = payload.get("unit") if isinstance(payload, dict) else None
    if unit == "experiment":
        return experiment_from_dict(payload.get("data", {}))
    if unit == "figure4":
        return figure4_row_from_dict(payload.get("data", {}))
    raise CheckpointError(f"unrecognised checkpoint payload kind {unit!r}")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _failure_from_exception(
    task: UnitTask, exc: BaseException, attempts: int
) -> BenchmarkFailure:
    return BenchmarkFailure(
        benchmark=task.benchmark,
        stage=stage_of(exc),
        kind=classify(exc),
        message=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
        retryable=isinstance(exc, TransientError),
        error=exc,
    )


def _run_inline(
    pending: Sequence[UnitTask],
    config: RunnerConfig,
    on_success: Callable[[str, dict], None],
    on_failure: Callable[[BenchmarkFailure], None],
) -> None:
    """Execute units in this process (no isolation, no timeouts)."""
    for task in pending:
        attempt = 1
        slept = 0.0
        while True:
            try:
                payload = execute_unit(replace(task, attempt=attempt))
            except Exception as exc:
                if config.fail_fast:
                    raise
                if isinstance(exc, TransientError) and attempt < config.retry.max_attempts:
                    rng = retry_rng(task.seed, f"{task.benchmark}:{attempt}")
                    delay = config.retry.delay(attempt, rng)
                    # Per-unit cumulative backoff budget: once a unit has
                    # slept max_total_delay across attempts, retrying
                    # stops even when attempts remain.
                    if config.retry.within_budget(slept, delay):
                        time.sleep(delay)
                        slept += delay
                        attempt += 1
                        continue
                on_failure(_failure_from_exception(task, exc, attempt))
                break
            else:
                on_success(task.benchmark, payload)
                break


def _keep_in_store(
    store: ArtifactStore,
    injector: FaultInjector,
    kinds: Dict[str, str],
    payloads: Dict[str, dict],
    failures: Dict[str, BenchmarkFailure],
) -> None:
    """Persist every finished unit's payload; a copy that fails its
    read-back check is quarantined and its benchmark fails at ``store``."""
    for name, payload in list(payloads.items()):
        key = f"{kinds[name]}/{name}"
        path = store.put(key, payload)
        injector.corrupt_artifact(name, 1, path)
        try:
            store.verify(key)
        except ArtifactCorruptError as exc:
            annotate_stage(exc, "store")
            store.quarantine(key)
            del payloads[name]
            failures[name] = BenchmarkFailure(
                benchmark=name,
                stage="store",
                kind=classify(exc),
                message=f"{type(exc).__name__}: {exc}",
                attempts=1,
                retryable=False,
                error=exc,
            )


def run_units(
    tasks: Sequence[UnitTask],
    config: Union[RunnerConfig, "FabricConfig", None] = None,
    fabric: Optional["FabricConfig"] = None,
) -> SuiteRunResult:
    """Run a list of benchmark units, inline or through the fabric.

    ``config`` stamps its per-unit switches onto every task.  With a
    ``fabric`` config the stamped tasks run isolated through
    :func:`repro.fabric.run_fabric` — supervised workers, the per-unit
    wall-clock budget, and checkpoint/resume when it names a queue
    directory; otherwise they run inline under ``config``'s retry and
    fail-fast policy.  A :class:`~repro.fabric.FabricConfig` passed as
    ``config`` is shorthand for ``fabric=config`` with default switches.
    """
    if config is not None and not isinstance(config, RunnerConfig):
        config, fabric = None, config
    config = config or RunnerConfig()
    if not tasks:
        return SuiteRunResult([], [], [], [])
    order = [t.benchmark for t in tasks]
    pending = [
        replace(
            task,
            validate=config.validate,
            faults=config.faults,
            oracle=config.oracle or task.oracle,
            prove=config.prove or task.prove,
            lint=config.lint or task.lint,
            meld=config.meld or task.meld,
            replay_check=config.replay_check or task.replay_check,
            trace_cache=(
                config.trace_cache if config.trace_cache is not None else task.trace_cache
            ),
        )
        for task in tasks
    ]
    payloads: Dict[str, dict] = {}
    failures: Dict[str, BenchmarkFailure] = {}
    if fabric is None:
        _run_inline(
            pending, config, payloads.__setitem__,
            lambda failure: failures.__setitem__(failure.benchmark, failure),
        )
        executed, skipped, checkpoint = list(payloads), [], None
    else:
        from ..fabric.workers import run_fabric

        run = run_fabric(pending, fabric)
        bridged = run.to_suite_result()
        failures = {failure.benchmark: failure for failure in bridged.failures}
        for unit_id in run.scheduler.order:
            payload = run.payload(unit_id)
            if payload is not None:
                payloads[run.scheduler.record(unit_id).benchmark] = payload
        executed = [n for n in order if n in bridged.executed]
        skipped, checkpoint = bridged.skipped, bridged.checkpoint

    if config.store is not None:
        _keep_in_store(
            ArtifactStore(config.store), FaultInjector(config.faults),
            {t.benchmark: t.kind for t in tasks}, payloads, failures,
        )
    return SuiteRunResult(
        results=[payload_to_result(payloads[n]) for n in order if n in payloads],
        failures=[failures[n] for n in order if n in failures],
        skipped=[n for n in order if n in skipped],
        executed=executed,
        checkpoint=checkpoint,
    )


def run_suite_resilient(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    archs: Sequence[str] = ALL_ARCHS,
    min_weight: int = 2,
    config: Union[RunnerConfig, "FabricConfig", None] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
    fabric: Optional["FabricConfig"] = None,
) -> SuiteRunResult:
    """The Tables 3/4 suite experiment under the resilient runner
    (``config`` and ``fabric`` as for :func:`run_units`)."""
    selected = list(names) if names is not None else list(SUITE)
    tasks = [
        UnitTask(
            kind="experiment",
            benchmark=name,
            scale=scale,
            seed=seed,
            window=window,
            archs=tuple(archs),
            min_weight=min_weight,
            algorithms=tuple(algorithms) if algorithms is not None else None,
            profile_source=profile_source,
        )
        for name in selected
    ]
    return run_units(tasks, config, fabric)


def run_figure4_resilient(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    alpha_config: Optional[AlphaConfig] = None,
    config: Union[RunnerConfig, "FabricConfig", None] = None,
    fabric: Optional["FabricConfig"] = None,
) -> SuiteRunResult:
    """The Figure 4 timing experiment under the resilient runner
    (``config`` and ``fabric`` as for :func:`run_units`)."""
    selected = list(names) if names is not None else list(FIGURE4_PROGRAMS)
    tasks = [
        UnitTask(
            kind="figure4",
            benchmark=name,
            scale=scale,
            seed=seed,
            window=window,
            alpha_config=alpha_config,
        )
        for name in selected
    ]
    return run_units(tasks, config, fabric)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_failure_table(failures: Sequence[BenchmarkFailure]) -> str:
    """The per-benchmark failure table printed for degraded runs."""
    from ..analysis.reporting import format_table

    rows = []
    for failure in failures:
        message = failure.message
        if len(message) > 72:
            message = message[:69] + "..."
        rows.append([
            failure.benchmark,
            failure.stage,
            failure.kind,
            str(failure.attempts),
            message,
        ])
    return format_table(["Benchmark", "Stage", "Kind", "Attempts", "Error"], rows)


def render_partial_banner(result: SuiteRunResult, total: int) -> str:
    """The explicit degradation marker for a lossy suite run."""
    lost = len(result.failures)
    return (
        f"partial: true — {lost} of {total} benchmark(s) failed; "
        f"{total - lost} completed"
    )
