"""The socket-tier acceptance scenario: SIGKILL the coordinator mid-sweep.

Remote workers live in *this* process; the coordinator runs as a child
process serving ``repro sweep --listen``.  We SIGKILL the coordinator
after the first unit is durably done, restart it with ``--resume`` on
the same port, and require that (a) units finished before the kill are
restored with zero re-runs, and (b) the orphaned workers reattach
through their full-jitter reconnect loop and finish the sweep.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.fabric import DONE, load_queue_dir
from repro.fabric.remote import launch_workers
from repro.runner.retry import RetryPolicy

BENCHMARKS = "eqntott,compress,alvinn"
#: Patient enough to ride out the kill -> restart gap (sub-second in this
#: test); a worker still dialling when the resumed sweep ends is stopped,
#: not waited out.
PATIENT_RECONNECT = RetryPolicy(
    max_attempts=60, base_delay=0.1, max_delay=0.5, max_total_delay=20.0
)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def sweep_args(queue: Path, port: int, *extra: str) -> list:
    return [
        "sweep", "--benchmarks", BENCHMARKS, "--scale", "0.3",
        "--archs", "btfnt", "--workers", "0",
        "--listen", f"127.0.0.1:{port}", "--lease", "20",
        "--retries", "2", "--queue", str(queue), *extra,
    ]


def test_coordinator_sigkill_loses_no_work_and_workers_reattach(tmp_path):
    queue = tmp_path / "queue"
    port = free_port()
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"sys.exit(main({sweep_args(queue, port)!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers = []
    try:
        workers = launch_workers(
            f"127.0.0.1:{port}", 2, timeout=2.0, heartbeat=0.25,
            reconnect=PATIENT_RECONNECT,
        )
        # Wait for real progress, then SIGKILL the coordinator: the
        # queue directory freezes mid-sweep, the workers are orphaned.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            try:
                _h, records, _c = load_queue_dir(queue)
            except Exception:
                records = {}
            if any(r.state == DONE for r in records.values()):
                break
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    _header, frozen, corrupt = load_queue_dir(queue)
    assert corrupt == []
    assert len(frozen) == 3
    done_before = {u for u, r in frozen.items() if r.state == DONE}
    assert done_before  # the kill happened after real progress

    # Restart on the same port with --resume while the orphaned workers
    # are still retrying their reconnect loop.
    from repro.cli import main
    assert main(sweep_args(queue, port, "--resume")) == 0

    # The sweep is over: a worker still dialling the closed port stops
    # between reconnect attempts instead of spending its whole budget.
    for thread in workers:
        thread.worker.stop()
    for thread in workers:
        thread.join(timeout=60.0)
    summaries = [t.summary for t in workers]
    assert all(s is not None for s in summaries)

    _header, after, corrupt = load_queue_dir(queue)
    assert corrupt == []
    assert {u: r.state for u, r in after.items()} == {u: DONE for u in after}
    # Zero re-runs: units done before the kill kept their exact
    # completion event — attempted twice must never be counted twice.
    for unit_id in done_before:
        events = [e for e in after[unit_id].lease_history
                  if e.get("action") == "complete"]
        assert len(events) == 1
        assert events == [e for e in frozen[unit_id].lease_history
                          if e.get("action") == "complete"]
    # The workers reattached through the partition rather than being
    # replaced: every unit finished after the kill was completed by one
    # of the worker threads launched before it (the second coordinator
    # spawned none of its own), and a thread that completed work on both
    # sides of the kill necessarily rode its reconnect loop back in.
    assert any(s["reason"] == "drained" for s in summaries)
    completed = [u for s in summaries for u in s["completed"]]
    assert set(after) - done_before <= set(completed)
    for summary in summaries:
        finished = set(summary["completed"])
        if finished & done_before and finished - done_before:
            assert int(summary["reconnects"]) >= 1
