"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import replay_check  # noqa: E402
from probe import Ledger, output_check  # noqa: E402
from tracing import Tracer, reenact  # noqa: E402
from workloads import WORKLOADS, experiment_cells, prepare, unit_digest  # noqa: E402

DEFINITIONS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    out = bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = DEFINITIONS["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in expected
    }
    assert f"{workload}: fail_ratio 0 ratio" in out.stdout
    for d in expected:
        assert f"{workload}: {d['name']} " in out.stdout


def test_output_check_rejects_a_perturbed_cell() -> None:
    plan = prepare("tournament", seed=0, smoke=True)
    spec = plan.specs[0]
    cells = experiment_cells(plan.calls[0].fn()[spec.uid])
    assert replay_check(spec, cells, pick=0) is None

    perturbed = copy.deepcopy(cells)
    perturbed["outcomes"]["orig"]["btb-64x2"][0] += 1e-12
    assert "orig/btb-64x2" in replay_check(spec, perturbed, pick=0)

    ledger = Ledger()
    ledger.digests[spec.uid] = unit_digest(perturbed)
    ledger.cells[spec.uid] = perturbed
    output_check(plan, ledger, seed=0, expected={spec.uid: unit_digest(cells)})
    assert ledger.failed >= 1
    assert any("reference" in problem for problem in ledger.problems)


@pytest.mark.parametrize("workload", ["tournament", "wide-cfg", "judged"])
def test_traced_reenactment_reproduces_untraced_cells(workload: str) -> None:
    plan = prepare(workload, seed=3, smoke=True)
    spec = plan.specs[0]
    untraced = plan.calls[0].fn()[spec.uid]
    tracer = Tracer()
    traced = reenact(spec, tracer, plan.programs.get(spec.uid))
    assert unit_digest(experiment_cells(traced)) == unit_digest(experiment_cells(untraced))
    assert all(end >= start for _name, start, end, _parent, _unit in tracer.spans)


def test_checkout_without_sources_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "tournament", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
