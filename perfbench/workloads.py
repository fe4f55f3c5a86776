"""The benchmark's four named workloads, driven through repro's public API.

A workload is a list of *units* — one :class:`UnitSpec` per program and
behaviour seed it runs — and a list of *calls*: the timed public entry
points that run those units, in order.  Every call returns the
:class:`~repro.analysis.BenchmarkExperiment` of each unit it ran; the
experiments' cells (aligner x architecture outcomes) are what the output
check digests.

Why each workload exists (also recorded in ``reference.json``):

* ``tournament`` — ``run_tournament`` over the 24-program suite at scale
  1.0, inline, no trace cache: the run behind Tables 3/4.  Long decision
  streams over small CFGs, so decision capture and the replay feeds
  carry it and the aligners barely show.
* ``wide-cfg`` — big seeded synthetic CFGs with a single driver
  iteration through ``run_benchmark_experiment(validate=True)``:
  alignment, linking and per-layout replay set-up carry it, the event
  loop does little.  Procedures stay at depth 2: at depth 3 ext-TSP
  alone takes 23-145 s per program.
* ``judged`` — the suite at scale 0.1 through ``run_suite_experiment``
  with the oracle, prover and lint judges on (``table3 --oracle --prove
  --lint``); no other workload runs the judges.
* ``fabric-sweep`` — the suite x 2 behaviour seeds at scale 0.02 through
  ``run_fabric`` with one worker, each unit cut to the original layout on
  one architecture: many tiny units, so the fabric's per-unit cost
  (leases, payload store, worker IPC, poll ticks) is most of the time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("tournament", "wide-cfg", "judged", "fabric-sweep")

WINDOW = 15
MIN_WEIGHT = 2

#: Suite subset and scale the ``--smoke`` mode runs (tests only).
SMOKE_SUITE = ("alvinn", "compress")
SMOKE_SCALE = 0.02

#: fabric-sweep: what each unit runs.  One static architecture and the
#: original layout keep a unit at ~4 ms, well inside one 20 ms poll tick
#: of the fabric's supervisor even on a host running at half speed, so a
#: sweep's time is the fabric's own per-unit cost.  With the full registry
#: a unit takes ~45 ms, straddles 2-3 ticks depending on host speed, and
#: the sweep's time moved by 18% (IQR/median) over ten runs.
FABRIC_ARCHS = ("fallthrough",)
FABRIC_ALGORITHMS = ("orig",)

#: wide-cfg: programs per run and their ``generate_synthetic`` recipe.
WIDE_PROGRAMS = 3
WIDE_SPEC = dict(procedures=24, constructs_per_procedure=8, max_depth=2,
                 driver_iterations=1)
WIDE_SMOKE_SPEC = dict(procedures=4, constructs_per_procedure=3, max_depth=1,
                       driver_iterations=1)

#: Cell fields, in digest order.
CELL_FIELDS = ("relative_cpi", "percent_fallthrough", "bep", "instructions",
               "cond_accuracy")


@dataclass(frozen=True)
class UnitSpec:
    """One program run at one behaviour seed, as a workload runs it."""

    uid: str
    benchmark: str
    seed: int
    scale: float
    #: ``generate_synthetic`` recipe and seed; None for suite programs.
    synthetic: Optional[Tuple[Tuple[str, Any], ...]] = None
    program_seed: int = 0
    #: Architectures and aligners the unit runs; None for all of them.
    archs: Optional[Tuple[str, ...]] = None
    algorithms: Optional[Tuple[str, ...]] = None
    #: Run through the resilient runner's ``execute_unit``, which
    #: validates the profile once before the experiment validates it again.
    runner: bool = True
    #: Oracle, prover and lint judges on (``RunnerConfig`` flags).
    judges: bool = False

    def generate(self):
        """The unit's program, built the way the workload builds it."""
        if self.synthetic is None:
            from repro.workloads import generate_benchmark

            return generate_benchmark(self.benchmark, self.scale)
        from repro.workloads.synthetic import SyntheticSpec, generate_synthetic

        return generate_synthetic(SyntheticSpec(**dict(self.synthetic)),
                                  seed=self.program_seed)


@dataclass(frozen=True)
class Call:
    """One timed public call and the units whose experiments it returns."""

    label: str
    uids: Tuple[str, ...]
    fn: Callable[[], Dict[str, Any]]


@dataclass
class Plan:
    """A prepared workload: its units and the timed calls that run them."""

    name: str
    specs: List[UnitSpec]
    calls: List[Call]
    #: Programs built during set-up, by unit id.
    programs: Dict[str, Any] = field(default_factory=dict)
    #: Scale call times to the nominal host (see ``hostspeed.py``).
    scale_to_host: bool = True
    #: fabric-sweep only: its ``UnitTask`` list and the last sweep result.
    tasks: List[Any] = field(default_factory=list)
    last_sweep: Dict[str, Any] = field(default_factory=dict)


class UnitLost(RuntimeError):
    """A call returned without the experiment of a unit it ran."""


def prepare(name: str, seed: int, smoke: bool = False, program_seed: int = 0) -> Plan:
    """Import what the workload calls and build every program it uses.

    This is the work ``setup_s`` measures.  ``program_seed`` is the
    first ``generate_synthetic`` seed of wide-cfg.
    """
    if name == "tournament":
        return _tournament(seed, smoke)
    if name == "wide-cfg":
        return _wide_cfg(seed, smoke, program_seed)
    if name == "judged":
        return _judged(seed, smoke)
    if name == "fabric-sweep":
        return _fabric_sweep(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _suite(smoke: bool) -> List[str]:
    from repro.workloads import SUITE

    return list(SMOKE_SUITE) if smoke else list(SUITE)


def _tournament(seed: int, smoke: bool) -> Plan:
    from repro.analysis.tournament import Tournament, render_tournament, run_tournament
    from repro.core.registry import aligner_names
    from repro.sim.metrics import ALL_ARCHS

    scale = SMOKE_SCALE if smoke else 1.0
    names = _suite(smoke)
    specs = [UnitSpec(n, n, seed, scale) for n in names]
    for spec in specs:
        spec.generate()
    latest: Dict[str, Any] = {}

    def unit(name: str) -> Callable[[], Dict[str, Any]]:
        def call() -> Dict[str, Any]:
            tournament = run_tournament(benchmarks=[name], scale=scale, seed=seed,
                                        window=WINDOW)
            latest[name] = tournament.experiments[0]
            return {name: latest[name]}
        return call

    def score() -> Dict[str, Any]:
        # The arena's scoring: every win matrix and standing, rendered
        # the way ``repro tournament`` prints them.
        render_tournament(Tournament(
            benchmarks=tuple(names), archs=ALL_ARCHS, algorithms=aligner_names(),
            scale=scale, seed=seed, window=WINDOW,
            experiments=[latest[n] for n in names],
        ))
        return {}

    calls = [Call(n, (n,), unit(n)) for n in names]
    calls.append(Call("score", (), score))
    return Plan("tournament", specs, calls)


def _wide_cfg(seed: int, smoke: bool, program_seed: int) -> Plan:
    from repro.analysis.experiment import run_benchmark_experiment

    recipe = tuple(sorted((WIDE_SMOKE_SPEC if smoke else WIDE_SPEC).items()))
    count = 1 if smoke else WIDE_PROGRAMS
    specs = [
        UnitSpec(f"wide-{ps}", f"wide-{ps}", seed, 1.0, synthetic=recipe,
                 program_seed=ps, runner=False)
        for ps in range(program_seed, program_seed + count)
    ]
    programs = {spec.uid: spec.generate() for spec in specs}

    def unit(spec: UnitSpec) -> Callable[[], Dict[str, Any]]:
        def call() -> Dict[str, Any]:
            return {spec.uid: run_benchmark_experiment(
                spec.benchmark, program=programs[spec.uid], seed=seed,
                window=WINDOW, min_weight=MIN_WEIGHT, validate=True,
            )}
        return call

    return Plan("wide-cfg", specs, [Call(s.uid, (s.uid,), unit(s)) for s in specs],
                programs=programs)


def _judged(seed: int, smoke: bool) -> Plan:
    from repro.analysis.experiment import run_suite_experiment
    from repro.runner import RunnerConfig
    import repro.oracle  # noqa: F401  (imported by the judges; part of set-up)
    import repro.staticcheck.binary  # noqa: F401

    scale = SMOKE_SCALE if smoke else 0.1
    config = RunnerConfig(oracle=True, prove=True, lint=True)
    specs = [UnitSpec(n, n, seed, scale, judges=True) for n in _suite(smoke)]
    for spec in specs:
        spec.generate()

    def unit(spec: UnitSpec) -> Callable[[], Dict[str, Any]]:
        def call() -> Dict[str, Any]:
            results = run_suite_experiment([spec.benchmark], scale=scale, seed=seed,
                                           window=WINDOW, runner=config)
            if not results:
                raise UnitLost(f"{spec.uid}: the runner recorded a failure")
            return {spec.uid: results[0]}
        return call

    return Plan("judged", specs, [Call(s.uid, (s.uid,), unit(s)) for s in specs])


def _fabric_sweep(seed: int, smoke: bool) -> Plan:
    from repro.fabric import FabricConfig, run_fabric
    from repro.runner.runner import UnitTask

    scale = SMOKE_SCALE if smoke else 0.02
    seeds = (seed,) if smoke else (seed, seed + 1)
    names = _suite(smoke)
    specs = [UnitSpec(f"{n}@{s}", n, s, scale, archs=FABRIC_ARCHS,
                      algorithms=FABRIC_ALGORITHMS) for s in seeds for n in names]
    tasks = [UnitTask(kind="experiment", benchmark=spec.benchmark, scale=scale,
                      seed=spec.seed, window=WINDOW, min_weight=MIN_WEIGHT,
                      archs=FABRIC_ARCHS, algorithms=FABRIC_ALGORITHMS)
             for spec in specs]
    for spec in specs[:len(names)]:
        spec.generate()
    config = FabricConfig(workers=1)

    # A sweep waits on the supervisor's 20 ms poll ticks between units, so
    # its time follows the tick count, not the host's speed, and is timed
    # raw.  Scaled by the host yardstick, sweeps of full-registry units
    # spread 0.16-0.45 (IQR/median) where their raw times spread 0.06.
    plan = Plan("fabric-sweep", specs, [], scale_to_host=False, tasks=tasks)

    def sweep() -> Dict[str, Any]:
        result = run_fabric(tasks, config)
        plan.last_sweep["result"] = result
        if result.failures or result.quarantined or len(result.results) != len(tasks):
            raise UnitLost(
                f"fabric lost units: {len(result.failures)} failed, "
                f"{len(result.quarantined)} quarantined, "
                f"{len(result.results)}/{len(tasks)} returned"
            )
        return dict(zip((spec.uid for spec in specs), result.results))

    plan.calls.append(Call("sweep", tuple(spec.uid for spec in specs), sweep))
    return plan


# ----------------------------------------------------------------------
# Result cells and their digests
# ----------------------------------------------------------------------
def cell_values(outcome: Any) -> List[Any]:
    """One cell's fields in digest order."""
    return [getattr(outcome, name) for name in CELL_FIELDS]


def experiment_cells(experiment: Any) -> Dict[str, Any]:
    """The digest-relevant content of one experiment."""
    return {
        "name": experiment.name,
        "original_instructions": experiment.original_instructions,
        "outcomes": {
            algorithm: {arch: cell_values(o) for arch, o in by_arch.items()}
            for algorithm, by_arch in experiment.outcomes.items()
        },
        "skips": experiment.skips,
    }


def report_cell(report: Any, arch: str, base: int) -> List[Any]:
    """A cell computed from one ``SimulationReport``, as the experiment
    driver computes it (relative CPI over the original instructions)."""
    result = report.arch[arch]
    return [report.relative_cpi(arch, base), report.percent_fallthrough, result.bep,
            report.instructions, result.cond_accuracy]


def cell_count(cells: Dict[str, Any]) -> int:
    """Aligner x architecture outcomes in one unit's cells."""
    return sum(len(by_arch) for by_arch in cells["outcomes"].values())


def unit_digest(cells: Dict[str, Any]) -> str:
    """SHA-256 of one unit's cells; floats keep every digit (``repr``)."""
    text = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(unit_digests: Dict[str, str], order: Sequence[str]) -> str:
    """SHA-256 over the unit digests in workload order."""
    text = "".join(f"{uid}:{unit_digests[uid]}\n" for uid in order)
    return hashlib.sha256(text.encode()).hexdigest()
