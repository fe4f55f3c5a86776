"""The traced run: each unit re-enacted one layer call at a time.

``reenact`` rebuilds a unit's experiment the way the runner and
``run_benchmark_experiment`` do, but from this file, calling each
layer's public function under a span: program generation, decision
capture, edge profiling, every aligner, linking, one ``simulate`` per
architecture, the runner's validation checks and, on ``judged``, lint,
the oracle's layouts and verification and the prover.  Its cells must
equal the untraced run's cells bit for bit.

Spans are ``[name, start_ns, end_ns, parent, unit]`` lists kept in
memory; a layer's self time is its span's duration minus its child
spans'.  Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from workloads import MIN_WEIGHT, WINDOW, UnitSpec, report_cell

#: Per-layer time metrics, in report order (``sim.replay.<arch>`` is
#: expanded per architecture by :func:`layer_names`).
LAYERS = (
    "workloads.generate",
    "sim.decisions.capture",
    "profiling.edge_profile",
    "core.align.greedy",
    "core.align.try15",
    "core.align.exttsp",
    "core.align.disptree",
    "isa.link",
    "sim.replay.*",
    "runner.validate",
    "analysis.score",
    "oracle.alignment_layouts",
    "oracle.verify",
    "staticcheck.binary.prove",
    "staticcheck.lint",
)


def layer_names(archs) -> List[str]:
    """Every layer span name, with the replay layer split per architecture."""
    out: List[str] = []
    for name in LAYERS:
        if name == "sim.replay.*":
            out.extend(f"sim.replay.{arch}" for arch in archs)
        else:
            out.append(name)
    return out


class Tracer:
    """In-memory spans and counts, recorded around layer calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.unit: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.unit])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, pauses: Sequence[Tuple[float, float]] = ()) -> List[int]:
        """Each span's duration less the ``(start, seconds)`` pauses
        (host-speed slices) that began inside it."""
        starts = [int(at * 1e9) for at, _seconds in pauses]
        paused = [0]
        for _at, seconds in pauses:
            paused.append(paused[-1] + int(seconds * 1e9))
        out = []
        for _name, start, end, _parent, _unit in self.spans:
            lo, hi = bisect_left(starts, start), bisect_left(starts, end)
            out.append(end - start - (paused[hi] - paused[lo]))
        return out

    def self_ns(self, durations: List[int]) -> List[int]:
        """Each span's duration minus its children's."""
        own = list(durations)
        for (_name, _start, _end, parent, _unit), spent in zip(self.spans, durations):
            if parent is not None:
                own[parent] -= spent
        return own


def reenact(spec: UnitSpec, tracer: Tracer, program: Any = None) -> Any:
    """Rebuild one unit's experiment, one traced layer call at a time.

    ``program`` is the unit's pre-built program when the workload builds
    it during set-up (wide-cfg); otherwise it is generated here, as the
    runner's ``execute_unit`` does.
    """
    from repro.analysis.experiment import ArchOutcome, BenchmarkExperiment, make_arch_sims
    from repro.core.registry import TRY_MODEL_ARCHS, plan_algorithms
    from repro.isa.encoder import link, link_identity
    from repro.runner.validate import validate_layout, validate_linked, validate_profile
    from repro.sim.decisions import capture_decisions
    from repro.sim.metrics import ALL_ARCHS, simulate
    from repro.workloads import SUITE

    if program is None:
        with tracer.span("workloads.generate"):
            program = spec.generate()
    tracer.count("workloads.blocks", sum(len(proc.blocks) for proc in program))
    with tracer.span("sim.decisions.capture"):
        trace = capture_decisions(program, seed=spec.seed, workload=spec.benchmark,
                                  scale=spec.scale)
    tracer.count("sim.decisions.steps", trace.steps)
    tracer.count("sim.decisions.templates", len(trace.templates))
    with tracer.span("profiling.edge_profile"):
        profile = trace.edge_profile(program)
    # execute_unit validates the profile, then run_benchmark_experiment
    # validates it again; a runner-less unit validates it once.
    for _ in range(2 if spec.runner else 1):
        with tracer.span("runner.validate"):
            validate_profile(program, profile)
    if spec.judges:
        from repro.staticcheck import run_lint

        with tracer.span("staticcheck.lint"):
            lint = run_lint(program, profile, subject=spec.benchmark)
        tracer.count("staticcheck.lint.errors", len(lint.errors))
        if not lint.ok:
            raise RuntimeError(f"{spec.uid}: lint failed — {lint.summary()}")

    archs = spec.archs or ALL_ARCHS

    def replay(linked: Any, archs: Any) -> Dict[str, Any]:
        reports = {}
        for arch in archs:
            with tracer.span(f"sim.replay.{arch}"):
                reports[arch] = simulate(
                    linked, profile, archs=make_arch_sims((arch,), linked, profile),
                    seed=spec.seed, trace=trace, engine="replay",
                )
            tracer.count("sim.replay.events", reports[arch].events)
        return reports

    with tracer.span("isa.link"):
        original = link_identity(program)
    tracer.count("isa.links")
    original_reports = replay(original, archs)
    base = original_reports[archs[0]].instructions

    def outcome(report: Any, arch: str) -> Any:
        return ArchOutcome(*report_cell(report, arch, base))

    experiment = BenchmarkExperiment(
        name=spec.benchmark,
        category=SUITE[spec.benchmark].category if spec.benchmark in SUITE else "custom",
        original_instructions=base,
    )
    for plan in plan_algorithms(spec.algorithms, archs, window=WINDOW,
                                min_weight=MIN_WEIGHT):
        bucket = experiment.outcomes.setdefault(plan.spec.name, {})
        if plan.skips:
            experiment.skips[plan.spec.name] = dict(plan.skips)
        if plan.spec.identity:
            for variant in plan.variants:
                for arch in variant.archs:
                    bucket[arch] = outcome(original_reports[arch], arch)
            continue
        for variant in plan.variants:
            with tracer.span(f"core.align.{plan.spec.name}"):
                layout = variant.aligner.align(program, profile)
            tracer.count("core.layouts")
            with tracer.span("runner.validate"):
                validate_layout(layout)
            with tracer.span("isa.link"):
                linked = link(layout)
            tracer.count("isa.links")
            with tracer.span("runner.validate"):
                validate_linked(linked)
            for arch, report in replay(linked, variant.archs).items():
                bucket[arch] = outcome(report, arch)

    if spec.judges:
        _judge(spec, tracer, program, profile, trace, TRY_MODEL_ARCHS, ALL_ARCHS)
    return experiment


def _judge(spec: UnitSpec, tracer: Tracer, program: Any, profile: Any, trace: Any,
           model_archs: Any, archs: Any) -> None:
    """The oracle and prover stages of ``execute_unit``, layer by layer."""
    from repro.oracle import alignment_layouts, verify_alignments
    from repro.staticcheck.binary import prove_layouts

    models = tuple(m for m, served in model_archs.items() if any(a in archs for a in served))
    with tracer.span("oracle.alignment_layouts"):
        layouts = alignment_layouts(
            program, profile, window=WINDOW, models=models,
            include_greedy=any(a != "btfnt" for a in archs),
            include_greedy_btfnt="btfnt" in archs, min_weight=MIN_WEIGHT,
        )
    with tracer.span("oracle.verify"):
        reports = verify_alignments(program, profile, layouts, seed=spec.seed,
                                    decisions=trace)
    tracer.count("oracle.layouts", len(reports))
    tracer.count("oracle.divergences", sum(len(r.divergences) for r in reports))
    with tracer.span("staticcheck.binary.prove"):
        proofs = prove_layouts(program, layouts, benchmark=spec.benchmark)
    tracer.count("staticcheck.binary.proofs", len(proofs))
    tracer.count("staticcheck.binary.proved", sum(p.bisimilar for p in proofs.values()))
    if not all(r.passed for r in reports) or not all(p.bisimilar for p in proofs.values()):
        raise RuntimeError(f"{spec.uid}: a judge rejected an aligned layout")


def score(experiments: List[Any], specs: List[UnitSpec], tracer: Tracer) -> None:
    """The tournament's scoring step under an ``analysis.score`` span."""
    from repro.analysis.tournament import Tournament, render_tournament
    from repro.core.registry import aligner_names
    from repro.sim.metrics import ALL_ARCHS

    with tracer.span("analysis.score"):
        render_tournament(Tournament(
            benchmarks=tuple(s.benchmark for s in specs), archs=ALL_ARCHS,
            algorithms=aligner_names(), scale=specs[0].scale, seed=specs[0].seed,
            window=WINDOW, experiments=experiments,
        ))
