"""Benchmark of the branch-alignment pipeline on four named workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tournament --seed 0 --seconds 18 --trace 0

``--workload`` is ``tournament``, ``wide-cfg``, ``judged``,
``fabric-sweep`` or ``all`` (each in turn).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
metrics of a traced re-enactment.  Every metric is printed by name with
its unit; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Timings are in seconds of a nominal host (see ``hostspeed.py``).
``setup_s`` is the median over several fresh interpreters of the time
from start to the first timed call: importing ``repro`` and building
every program the workload uses.  The measuring process then repeats
the workload's calls for ``--seconds`` and reports ``wall_s`` as the sum
of per-call medians; the output check follows, untimed (``check.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` (after one uncounted probe
#: that compiles bytecode in a fresh checkout).
SETUP_PROBES = 9
#: Seconds a probe may take beyond the measuring time.
PROBE_GRACE = 150


def probe_command(mode: str, args: argparse.Namespace, workload: str) -> List[str]:
    command = [sys.executable, str(HERE / "probe.py"), mode, workload,
               str(args.seed), str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.program_seed:
        command += ["--program-seed", str(args.program_seed)]
    return command


def start(command: List[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def stop(process: subprocess.Popen) -> None:
    """Kill a probe that is still running and wait for it to end."""
    if process.poll() is None:
        process.kill()
    process.wait()


def time_setup(command: List[str]) -> float:
    """Nominal-host seconds from starting a fresh interpreter to ``ready``.

    The probe reports the seconds it spent measuring the host, which are
    taken out, and the nominal-host factor of its set-up.
    """
    begin = time.perf_counter()
    process = start(command)
    try:
        ready = process.stdout.readline().split()
        elapsed = time.perf_counter() - begin
        process.communicate(timeout=PROBE_GRACE)
    finally:
        stop(process)
    if process.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
    return (elapsed - float(ready[1])) * float(ready[2])


def run_probe(command: List[str], timeout: float) -> Dict[str, Any]:
    """Run the measuring probe and return its JSON record."""
    process = start(command)
    try:
        out, _ = process.communicate(timeout=timeout)
    finally:
        stop(process)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines or not lines[0].startswith("ready"):
        raise RuntimeError(f"measuring probe failed (exit {process.returncode})")
    return json.loads(lines[-1])


def run_workload(workload: str, args: argparse.Namespace,
                 definitions: Dict[str, Any]) -> Dict[str, Any]:
    """Set-up probes plus one measuring probe; the workload's result."""
    metrics: Dict[str, float] = {}
    if not args.trace:
        command = probe_command("setup", args, workload)
        setups = [time_setup(command) for _ in range(SETUP_PROBES + 1)]
        metrics["setup_s"] = statistics.median(setups[1:])
    mode = "trace" if args.trace else "measure"
    record = run_probe(probe_command(mode, args, workload), args.seconds + PROBE_GRACE)
    if args.trace:
        metrics.update(record["layers"])
        names = definitions["per_layer"]
    else:
        metrics["wall_s"] = record["wall_s"]
        metrics["cells_per_s"] = record["cells"] / record["wall_s"]
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
        names = definitions["end_to_end"]
    return {
        "correct": record["failed"] == 0 and record["digest"] is not None,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "problems": record["problems"],
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in names},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="behaviour seed of every unit (default 0)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="how long the measuring process repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--program-seed", type=int, default=0,
                        help="first generate_synthetic seed of wide-cfg (default 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no reference digests (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = run_workload(workload, args, definitions)
        results[workload] = result
        for problem in result["problems"]:
            print(f"{workload}: FAILED {problem}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: fail_ratio {ratio:g} ratio "
              f"({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"{workload}: {name} {metric['value']:.6g} {metric['unit']}")
    if len(results) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": metric for w, r in results.items()
                   for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
