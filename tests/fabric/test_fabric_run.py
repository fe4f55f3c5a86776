"""End-to-end fabric runs: chaos faults, reports, SIGKILL resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.experiment import BenchmarkExperiment, run_suite_experiment
from repro.fabric import (
    DONE,
    FabricConfig,
    FabricRunResult,
    FabricSupervisor,
    Scheduler,
    build_report,
    diff_reports,
    load_queue_dir,
    load_report,
    run_fabric,
    write_report,
)
from repro.fabric.scheduler import FabricError
from repro.runner.faults import FaultPlan, FaultSpec
from repro.runner.retry import RetryPolicy
from repro.runner.runner import UnitTask

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05,
                         jitter=0.0)


def tasks_for(*benchmarks: str, scale: float = 0.05) -> list:
    return [
        UnitTask(kind="experiment", benchmark=b, scale=scale, seed=0,
                 window=15, archs=("btfnt",))
        for b in benchmarks
    ]


def config_with(**kwargs) -> FabricConfig:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease", 20.0)
    kwargs.setdefault("heartbeat", 0.25)
    kwargs.setdefault("missed_heartbeats", 4)
    kwargs.setdefault("retry", FAST_RETRY)
    return FabricConfig(**kwargs)


class TestCleanRun:
    def test_all_units_complete(self):
        result = run_fabric(tasks_for("eqntott", "compress"), config_with())
        assert result.counts()[DONE] == 2
        assert not result.partial and not result.failures
        assert sorted(result.executed) == sorted(result.scheduler.order)
        assert all(isinstance(r, BenchmarkExperiment) for r in result.results)

    def test_suite_experiment_routes_through_fabric(self):
        experiments = run_suite_experiment(
            names=["eqntott"], scale=0.05, archs=("btfnt",),
            runner=config_with(workers=1),
        )
        assert [e.name for e in experiments] == ["eqntott"]
        assert "btfnt" in experiments[0].outcomes["try15"]


class TestChaos:
    def test_kill_worker_is_survived(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "kill-worker"),))
        result = run_fabric(tasks_for("eqntott", "compress"),
                            config_with(faults=plan))
        assert result.counts()[DONE] == 2 and not result.quarantined
        victim = next(r for u in result.scheduler.order
                      for r in [result.scheduler.record(u)]
                      if r.benchmark == "eqntott")
        assert victim.attempts == 2 and len(victim.crash_workers) == 1

    def test_expired_lease_never_double_counts(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "expire-lease"),))
        result = run_fabric(tasks_for("eqntott"), config_with(workers=2))
        # Without faults first: baseline sanity.
        assert result.counts()[DONE] == 1
        chaotic = run_fabric(tasks_for("eqntott"),
                             config_with(workers=2, faults=plan))
        assert chaotic.counts()[DONE] == 1
        record = chaotic.scheduler.record(chaotic.scheduler.order[0])
        completions = [e for e in record.lease_history
                       if e.get("action") == "complete"]
        assert len(completions) == 1
        assert chaotic.executed.count(record.unit_id) == 1

    def test_poison_unit_is_quarantined_with_evidence(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "poison-unit"),))
        result = run_fabric(tasks_for("eqntott", "compress"),
                            config_with(poison_threshold=2, faults=plan))
        assert result.counts()[DONE] == 1
        assert len(result.quarantined) == 1
        poison = result.quarantined[0]
        assert poison.benchmark == "eqntott"
        assert len(set(poison.crash_workers)) == 2
        assert all("injected poison" in tb for tb in poison.tracebacks)
        # The poison unit surfaces in the classic suite-result bridge too.
        bridged = result.to_suite_result()
        assert any(f.kind == "poison" for f in bridged.failures)

    def test_drained_units_surface_in_the_suite_result_bridge(self):
        # A drain leaves units unsettled; the table commands must report
        # them as lost (exit 3), not print a silently shorter table.
        supervisor = FabricSupervisor(Scheduler(tasks_for("eqntott")), config_with())
        supervisor.request_drain("SIGTERM")
        supervisor.run()
        result = FabricRunResult(
            scheduler=supervisor.scheduler, results=[], failures=[],
            quarantined=[], resumed=[], executed=[], drained=True,
            drain_reason="SIGTERM",
        )
        bridged = result.to_suite_result()
        assert bridged.partial
        [failure] = bridged.failures
        assert failure.kind == "drained" and "SIGTERM" in failure.message

    def test_corrupt_queue_record_is_rewritten_by_next_transition(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "corrupt-queue"),))
        result = run_fabric(tasks_for("eqntott"),
                            config_with(workers=1, faults=plan,
                                        queue_dir=tmp_path))
        assert result.counts()[DONE] == 1
        _header, records, corrupt = load_queue_dir(tmp_path)
        # The completion transition rewrote the corrupted record atomically.
        assert corrupt == []
        assert records[result.scheduler.order[0]].state == DONE


class TestWallClockBudget:
    def test_heartbeating_hang_is_killed_and_failed_as_timeout(self):
        # The hung unit's worker keeps heartbeating, so only the budget
        # can stop it; the unit on the other worker must still finish.
        # The hang ends by itself after 30 s, bounding a broken budget.
        plan = FaultPlan(specs=(FaultSpec("eqntott", "simulate", "hang", times=99,
                                          hang_seconds=30.0),))
        tasks = [replace(t, faults=plan) for t in tasks_for("eqntott", "compress")]
        started = time.monotonic()
        result = run_fabric(tasks, config_with(timeout=2.0))
        assert time.monotonic() - started < 20.0
        assert [e.name for e in result.results] == ["compress"]
        assert not result.quarantined
        [failure] = result.failures
        assert failure.benchmark == "eqntott" and failure.kind == "timeout"
        assert "exceeded the 2s wall-clock budget" in failure.message
        record = next(result.scheduler.record(u) for u in result.scheduler.order
                      if result.scheduler.record(u).benchmark == "eqntott")
        assert record.attempts == 1 and record.crash_workers == []

    @pytest.mark.parametrize("kwargs", [
        dict(timeout=0.0),
        dict(timeout=5.0, listen="127.0.0.1:0"),
    ])
    def test_bad_budget_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FabricConfig(**kwargs)

    @pytest.mark.parametrize("poll", [0.0, -1.0])
    def test_non_positive_poll_is_rejected(self, poll):
        with pytest.raises(ValueError, match="poll must be positive"):
            FabricConfig(poll=poll)


def _children(pid: int) -> list:
    """Pids whose parent is ``pid`` (from /proc)."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has finished)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_their_supervisor_is_sigkilled(tmp_path):
    # One busy worker (a unit hanging in simulate) and one idle worker.
    queue = tmp_path / "queue"
    code = (
        "from repro.fabric import FabricConfig, run_fabric\n"
        "from repro.runner.faults import FaultPlan, FaultSpec\n"
        "from repro.runner.runner import UnitTask\n"
        "plan = FaultPlan((FaultSpec('eqntott', 'simulate', 'hang', times=99),))\n"
        "task = UnitTask(kind='experiment', benchmark='eqntott', scale=0.02,\n"
        "                archs=('btfnt',), faults=plan)\n"
        f"run_fabric([task], FabricConfig(workers=2, heartbeat=0.2, queue_dir={str(queue)!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers: list = []
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                _h, records, _c = load_queue_dir(queue)
            except Exception:
                records = {}
            workers = _children(proc.pid)
            if len(workers) == 2 and any(r.state == "leased" for r in records.values()):
                break
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert len(workers) == 2
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline and any(_alive(pid) for pid in workers):
        time.sleep(0.05)
    try:
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


class TestReport:
    def test_chaos_report_matches_clean_minus_quarantine(self):
        tasks = tasks_for("eqntott", "compress", "alvinn")
        clean = run_fabric(tasks, config_with())
        plan = FaultPlan(specs=(
            FaultSpec("eqntott", "fabric", "kill-worker"),
            FaultSpec("alvinn", "fabric", "poison-unit"),
        ))
        chaos = run_fabric(tasks, config_with(faults=plan))
        clean_report = build_report(clean.scheduler)
        chaos_report = build_report(chaos.scheduler)
        assert diff_reports(clean_report, clean_report) == []
        assert diff_reports(clean_report, chaos_report) == []
        assert [u.split("/")[1] for u in chaos_report["quarantined"]] == ["alvinn"]

    def test_report_digest_detects_tampering(self, tmp_path):
        result = run_fabric(tasks_for("eqntott"), config_with(workers=1))
        path = tmp_path / "report.json"
        write_report(result.scheduler, path)
        assert load_report(path)["counts"][DONE] == 1
        data = json.loads(path.read_text(encoding="utf-8"))
        data["counts"][DONE] = 7
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FabricError):
            load_report(path)


@pytest.mark.slow
class TestSigkillResume:
    """The acceptance scenario: SIGKILL mid-sweep, then ``--resume``."""

    BENCHMARKS = "eqntott,compress,alvinn"

    def _sweep_args(self, queue: Path, *extra: str) -> list:
        return [
            "sweep", "--benchmarks", self.BENCHMARKS, "--scale", "0.3",
            "--archs", "btfnt", "--workers", "1", "--lease", "20",
            "--retries", "2", "--queue", str(queue), *extra,
        ]

    def test_resume_after_sigkill_loses_and_duplicates_nothing(self, tmp_path):
        queue = tmp_path / "queue"
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"sys.exit(main({self._sweep_args(queue)!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # Wait until at least one unit is durably done, then SIGKILL —
            # the queue directory is frozen mid-sweep.
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

        from repro.cli import main
        assert main(self._sweep_args(queue, "--resume")) == 0

        _header, after, corrupt = load_queue_dir(queue)
        assert corrupt == []
        assert {u: r.state for u, r in after.items()} \
            == {u: DONE for u in after}
        # No duplicated work: units done before the kill kept their exact
        # completion (one complete event each, same attempt number).
        for unit_id in done_before:
            events = [e for e in after[unit_id].lease_history
                      if e.get("action") == "complete"]
            assert len(events) == 1
            assert events == [e for e in frozen[unit_id].lease_history
                              if e.get("action") == "complete"]
