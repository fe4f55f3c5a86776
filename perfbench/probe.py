"""One benchmark process: set a workload up, then measure or trace it.

``run.py`` starts this file; it is not meant to be run by hand::

    python3 perfbench/probe.py MODE WORKLOAD SEED SECONDS [--smoke]
                               [--program-seed N]

``MODE`` is ``setup`` (set up, print ``ready``, exit), ``measure`` (timed
untraced calls, then the output check) or ``trace`` (untraced and
traced passes, then the output check).  After ``ready`` the last line on
stdout is one JSON record; the same record, with the spans of a traced
run, is written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

_BOOT = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostClock  # noqa: E402

# Set-up is timed like any call: a yardstick before it, slices during it
# and a yardstick after it.  run.py takes their time out of the set-up.
_SETUP_CLOCK = HostClock()
_FIRST_YARDSTICK_S = time.perf_counter() - _BOOT

from check import checked_units, load_reference, reference_units, replay_check  # noqa: E402
from tracing import Tracer, layer_names, reenact, score  # noqa: E402
from workloads import (  # noqa: E402
    Call,
    Plan,
    cell_count,
    experiment_cells,
    prepare,
    unit_digest,
    workload_digest,
)


class Ledger:
    """Attempts, failures and the per-unit cells of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.cells: Dict[str, Any] = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def record(self, uid: str, experiment: Any) -> str:
        """Digest one execution's cells; a unit must repeat exactly."""
        cells = experiment_cells(experiment)
        digest = unit_digest(cells)
        first = self.digests.setdefault(uid, digest)
        self.cells.setdefault(uid, cells)
        if digest != first:
            self.fail(1, f"{uid}: cells changed between executions")
        return digest


def run_call(clock: HostClock, call: Call, ledger: Ledger, scale: bool) -> Optional[float]:
    """One timed call; its (nominal-host) seconds, or None if it failed."""
    units = max(1, len(call.uids))
    ledger.attempted += units
    try:
        experiments, raw, factor = clock.time(call.fn, scale)
    except Exception as exc:  # a failed unit is counted, the run goes on
        ledger.fail(units, f"{call.label}: {type(exc).__name__}: {exc}")
        return None
    for uid in call.uids:
        if uid in experiments:
            ledger.record(uid, experiments[uid])
        else:
            ledger.fail(1, f"{uid}: no experiment returned")
    return raw * factor


def median_sum(samples: Dict[str, List[float]]) -> float:
    """Sum of per-call medians: one complete run, steadied per call."""
    return sum(statistics.median(values) for values in samples.values() if values)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(plan: Plan, clock: HostClock, ledger: Ledger, seconds: float) -> Dict[str, Any]:
    """Repeat the workload's calls in order for ``seconds``.

    Every call runs at least once; the last pass may stop part-way, so
    calls early in the order can have one sample more.
    """
    samples: Dict[str, List[float]] = {call.label: [] for call in plan.calls}
    tried = set()
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        for call in plan.calls:
            if time.perf_counter() >= deadline and len(tried) == len(plan.calls):
                done = True
                break
            tried.add(call.label)
            elapsed = run_call(clock, call, ledger, plan.scale_to_host)
            if elapsed is not None:
                samples[call.label].append(elapsed)
    wall = median_sum(samples)
    return {
        "wall_s": wall,
        "cells": sum(cell_count(cells) for cells in ledger.cells.values()),
        "peak_rss_mb": peak_rss_mb(),
        "samples": samples,
    }


def trace(plan: Plan, clock: HostClock, ledger: Ledger, seconds: float) -> Dict[str, Any]:
    """Alternate untraced and traced passes for ``seconds`` (at least one each).

    On fabric-sweep each pass also runs the sweep's tasks inline through
    ``execute_unit``: fabric overhead is the sweep's time minus theirs.
    """
    from repro.runner.runner import execute_unit, payload_to_result
    from repro.sim.metrics import ALL_ARCHS

    tracer = Tracer()
    untraced: Dict[str, List[float]] = {call.label: [] for call in plan.calls}
    traced: Dict[str, List[float]] = defaultdict(list)
    inline: Dict[str, List[float]] = defaultdict(list)
    inline_raw: Dict[str, List[float]] = defaultdict(list)
    factors: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for call in plan.calls:
            elapsed = run_call(clock, call, ledger, plan.scale_to_host)
            if elapsed is not None:
                untraced[call.label].append(elapsed)
        for spec, task in zip(plan.specs, plan.tasks):
            ledger.attempted += 1
            try:
                payload, raw, factor = clock.time(lambda: execute_unit(task))
            except Exception as exc:
                ledger.fail(1, f"{spec.uid} inline: {type(exc).__name__}: {exc}")
                continue
            inline[spec.uid].append(raw * factor)
            inline_raw[spec.uid].append(raw)
            ledger.record(spec.uid, payload_to_result(payload))
        experiments = []
        for spec in plan.specs:
            program = None
            if not spec.runner:
                # Built during set-up, not inside the timed call.
                tracer.unit = f"{passes}:{spec.uid}:setup"

                def build(spec=spec) -> Any:
                    with tracer.span("setup"), tracer.span("workloads.generate"):
                        return spec.generate()

                program, _raw, factors[tracer.unit] = clock.time(build)
            tracer.unit = f"{passes}:{spec.uid}"

            def unit(spec=spec, program=program) -> Any:
                with tracer.span("unit"):
                    return reenact(spec, tracer, program)

            ledger.attempted += 1
            try:
                experiment, raw, factors[tracer.unit] = clock.time(unit)
            except Exception as exc:
                ledger.fail(1, f"{spec.uid} traced: {type(exc).__name__}: {exc}")
                continue
            traced[spec.uid].append(raw * factors[tracer.unit])
            experiments.append(experiment)
            untraced_digest = ledger.digests.get(spec.uid)
            if unit_digest(experiment_cells(experiment)) != untraced_digest:
                ledger.fail(1, f"{spec.uid}: traced cells differ from untraced")
        if plan.name == "tournament" and len(experiments) == len(plan.specs):
            tracer.unit = f"{passes}:score"

            def scoring() -> None:
                with tracer.span("unit"):
                    score(experiments, plan.specs, tracer)

            _none, raw, factors[tracer.unit] = clock.time(scoring)
            traced["score"].append(raw * factors[tracer.unit])
        passes += 1

    layers = dict.fromkeys(layer_names(ALL_ARCHS), 0.0)
    covered = rooted = 0
    durations = tracer.durations(clock.slices)
    for (name, _start, _end, _parent, unit), spent, own in zip(
            tracer.spans, durations, tracer.self_ns(durations)):
        if name == "unit":
            rooted += spent
        elif name != "setup":
            layers[name] += own * factors.get(unit, 1.0) / 1e9 / passes
            if not unit.endswith(":setup"):
                covered += own
    counts = {name: value / passes for name, value in tracer.counts.items()}
    metrics: Dict[str, float] = {f"{name}.s": value for name, value in layers.items()}
    for name in ("workloads.blocks", "sim.decisions.steps", "sim.decisions.templates",
                 "core.layouts", "isa.links", "sim.replay.events", "oracle.layouts",
                 "oracle.divergences", "staticcheck.lint.errors"):
        metrics[name] = counts.get(name, 0.0)
    replay_s = sum(layers[f"sim.replay.{arch}"] for arch in ALL_ARCHS)
    metrics["sim.replay.events_per_s"] = metrics["sim.replay.events"] / replay_s
    proofs = counts.get("staticcheck.binary.proofs", 0.0)
    metrics["staticcheck.binary.proved_ratio"] = (
        counts.get("staticcheck.binary.proved", 0.0) / proofs if proofs else 0.0
    )
    untraced_wall = median_sum(untraced)
    traced_wall = median_sum(traced)
    metrics["fabric.overhead_per_unit.s"] = 0.0
    metrics["fabric.attempts_per_unit"] = 0.0
    metrics["fabric.quarantined"] = 0.0
    if plan.tasks and "result" in plan.last_sweep:
        inline_wall = median_sum(inline)
        result = plan.last_sweep["result"]
        records = [result.scheduler.record(u) for u in result.scheduler.order]
        # Both sides in raw seconds: the sweep is not scaled to the host.
        metrics["fabric.overhead_per_unit.s"] = (
            (untraced_wall - median_sum(inline_raw)) / len(plan.tasks))
        metrics["fabric.attempts_per_unit"] = sum(r.attempts for r in records) / len(records)
        metrics["fabric.quarantined"] = float(len(result.quarantined))
        untraced_wall = inline_wall
    metrics["trace.coverage"] = covered / rooted
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return {"layers": metrics, "passes": passes, "spans": tracer.spans,
            "factors": factors}


def output_check(plan: Plan, ledger: Ledger, seed: int,
                 expected: Optional[Dict[str, str]]) -> None:
    """Reference digests (``expected``, for known seeds) and the replay
    check (a third of the units)."""
    if expected is not None:
        for spec in plan.specs:
            ledger.attempted += 1
            if ledger.digests.get(spec.uid) != expected.get(spec.uid):
                ledger.fail(1, f"{spec.uid}: digest differs from reference.json")
    for index in checked_units(plan.specs, seed):
        spec = plan.specs[index]
        ledger.attempted += 1
        cells = ledger.cells.get(spec.uid)
        problem = (f"{spec.uid}: no cells to check" if cells is None else
                   replay_check(spec, cells, pick=seed + index,
                                program=plan.programs.get(spec.uid)))
        if problem is not None:
            ledger.fail(1, problem)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--program-seed", type=int, default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    plan, work, factor = _SETUP_CLOCK.time(lambda: prepare(
        args.workload, args.seed, smoke=args.smoke, program_seed=args.program_seed))
    measuring = _FIRST_YARDSTICK_S + (time.perf_counter() - started - work)
    print(f"ready {measuring!r} {factor!r}", flush=True)
    if args.mode == "setup":
        return 0

    clock = HostClock()
    ledger = Ledger()
    if args.mode == "measure":
        record = measure(plan, clock, ledger, args.seconds)
    else:
        record = trace(plan, clock, ledger, args.seconds)
    expected = None
    if not args.smoke and args.program_seed == 0:
        expected = reference_units(load_reference(), args.workload, args.seed)
    output_check(plan, ledger, args.seed, expected)
    order = [spec.uid for spec in plan.specs]
    complete = all(uid in ledger.digests for uid in order)
    record.update(
        workload=args.workload, seed=args.seed, mode=args.mode, smoke=args.smoke,
        attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
        units=ledger.digests,
        digest=workload_digest(ledger.digests, order) if complete else None,
    )
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-seed{args.seed}-{args.mode}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record.pop("spans", None)
    record.pop("factors", None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
