"""The output check: reference digests and an independent replay check.

Three checks run on every benchmark run, untimed:

* every execution of a unit in the run yields the same cell digest;
* for the default and held-out seeds, each unit's digest equals the one
  recorded in ``reference.json``;
* on a third of the units, rotated by seed, the original layout and one
  aligned layout (rotated over the unit's aligner variants) are simulated
  with ``replay_check=True``, so the legacy executor re-derives every
  branch-cost count independently of the replay engine, and the
  workload's cells must equal the cells computed from those reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import MIN_WEIGHT, WINDOW, UnitSpec, report_cell

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: One unit in this many is replay-checked per run.
CHECK_STRIDE = 3


def load_reference(path: Path = REFERENCE) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reference_units(reference: Dict[str, Any], workload: str,
                    seed: int) -> Optional[Dict[str, str]]:
    """The recorded per-unit digests for a workload and seed, if any."""
    entry = reference.get("digests", {}).get(workload, {}).get(str(seed))
    return None if entry is None else entry["units"]


def checked_units(specs: List[UnitSpec], seed: int) -> List[int]:
    """Indices of the units this run replay-checks."""
    return [i for i in range(len(specs)) if (i + seed) % CHECK_STRIDE == 0]


def replay_check(spec: UnitSpec, cells: Dict[str, Any], pick: int,
                 program: Any = None) -> Optional[str]:
    """Check one unit's cells against the legacy executor.

    Returns None when both engines agree and the cells match them, else
    what went wrong.  ``pick`` chooses the aligned layout.
    """
    from repro.analysis.experiment import make_arch_sims
    from repro.core.registry import plan_algorithms
    from repro.isa.encoder import link, link_identity
    from repro.sim.decisions import capture_decisions
    from repro.sim.metrics import ALL_ARCHS, simulate
    from repro.sim.replay import ReplayMismatchError

    if program is None:
        program = spec.generate()
    trace = capture_decisions(program, seed=spec.seed)
    profile = trace.edge_profile(program)
    linked = {"orig": link_identity(program)}
    archs = {"orig": spec.archs or ALL_ARCHS}
    variants = [
        (plan.spec.name, variant)
        for plan in plan_algorithms(spec.algorithms, archs["orig"], window=WINDOW,
                                    min_weight=MIN_WEIGHT)
        if not plan.spec.identity
        for variant in plan.variants
    ]
    if variants:
        algorithm, variant = variants[pick % len(variants)]
        linked[algorithm] = link(variant.aligner.align(program, profile))
        archs[algorithm] = variant.archs
    reports = {}
    for name in linked:
        try:
            reports[name] = simulate(
                linked[name], profile,
                archs=make_arch_sims(archs[name], linked[name], profile),
                seed=spec.seed, trace=trace, engine="replay", replay_check=True,
            )
        except ReplayMismatchError as exc:
            return f"{spec.uid}/{name}: {exc}"
    base = reports["orig"].instructions
    for name, report in reports.items():
        for arch in archs[name]:
            got = cells["outcomes"].get(name, {}).get(arch)
            want = report_cell(report, arch, base)
            if got != want:
                return f"{spec.uid}: cell {name}/{arch} is {got}, the executor gives {want}"
    return None
