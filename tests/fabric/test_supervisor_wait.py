"""The supervisor wakes on events, not on its ``poll`` timeout.

A worker's message, a worker's exit and a remote commit or fail each end the
supervisor's wait at once, so a sweep of tiny units returns long before
one ``poll`` has passed; ``poll`` only bounds how late the queue-clock
timers (lease expiry, stalls, budget, backoff, drain) are checked.  The
timer-driven paths keep their own tests in ``test_fabric_run.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import sys
import time
from dataclasses import replace
from typing import Optional

from repro.fabric import DONE, FabricConfig, FabricSupervisor, Scheduler, run_fabric
from repro.fabric.remote import launch_workers
from repro.fabric.workers import WorkerHandle
from repro.runner.faults import FaultPlan, FaultSpec
from repro.runner.retry import RetryPolicy
from repro.runner.runner import UnitTask

#: Long enough that waiting out even one timeout fails a bound of half.
POLL = 5.0
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05,
                         jitter=0.0)


def tiny_tasks(*benchmarks: str, seeds: tuple = (0,)) -> list:
    names = benchmarks or ("alvinn", "compress", "eqntott")
    return [
        UnitTask(kind="experiment", benchmark=b, scale=0.02, seed=seed, window=15,
                 archs=("fallthrough",), algorithms=("orig",))
        for seed in seeds for b in names
    ]


def timed_sweep(config: FabricConfig, remote_workers: int = 0,
                tasks: Optional[list] = None):
    threads: list = []

    def listening(address: tuple) -> None:
        threads.extend(launch_workers(address, remote_workers, timeout=2.0,
                                      heartbeat=0.2))

    started = time.monotonic()
    result = run_fabric(tasks if tasks is not None else tiny_tasks(), config,
                        on_listening=listening if remote_workers else None)
    elapsed = time.monotonic() - started
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    return result, elapsed


def assert_counted_once(result) -> None:
    """Every unit done, and counted once whichever tier ran it."""
    assert result.counts()[DONE] == len(result.scheduler.order)
    assert not result.partial
    assert sorted(result.executed) == sorted(result.scheduler.order)


class TestWakeUps:
    def test_local_sweep_wakes_on_worker_messages(self):
        result, elapsed = timed_sweep(FabricConfig(workers=1, poll=POLL))
        assert_counted_once(result)
        assert elapsed < POLL / 2

    def test_remote_only_sweep_wakes_on_the_last_commit(self):
        result, elapsed = timed_sweep(
            FabricConfig(workers=0, listen="127.0.0.1:0", poll=POLL),
            remote_workers=2,
        )
        assert_counted_once(result)
        assert elapsed < POLL / 2
        assert result.remote is not None
        assert len(result.remote["remote_completed"]) == 3

    def test_remote_only_sweep_wakes_on_a_settled_fail(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "align", "crash", times=99),))
        result, elapsed = timed_sweep(
            FabricConfig(workers=0, listen="127.0.0.1:0", poll=POLL),
            remote_workers=1,
            tasks=[replace(t, faults=plan) for t in tiny_tasks("eqntott")],
        )
        [failure] = result.failures
        assert failure.benchmark == "eqntott" and result.executed == []
        assert elapsed < POLL / 2

    def test_mixed_sweep_wakes_on_either_tier(self):
        result, elapsed = timed_sweep(
            FabricConfig(workers=1, listen="127.0.0.1:0", poll=POLL),
            remote_workers=1,
        )
        assert_counted_once(result)
        assert elapsed < POLL / 2

    def test_busy_tiers_under_thread_churn_count_every_unit_once(self):
        # More workers than cores, and thread switches every 10 us, so the
        # handler threads' commits race the loop's passes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result, elapsed = timed_sweep(
                FabricConfig(workers=1, listen="127.0.0.1:0", poll=POLL),
                remote_workers=3, tasks=tiny_tasks(seeds=(0, 1, 2)),
            )
        finally:
            sys.setswitchinterval(interval)
        assert_counted_once(result)
        assert elapsed < POLL / 2
        for unit_id in result.scheduler.order:
            history = result.scheduler.record(unit_id).lease_history
            assert [e["action"] for e in history].count("complete") == 1


def _hang_up_and_linger(conn, seconds: float) -> None:
    conn.close()
    time.sleep(seconds)


def test_a_hung_up_pipe_does_not_spin_the_loop():
    # A worker whose pipe reads EOF while its process lives on: its pipe
    # stays readable, so waiting on it would return at once every pass
    # until the process exits and is reaped.
    poll, linger = 0.05, 0.5
    supervisor = FabricSupervisor(
        Scheduler(tiny_tasks("alvinn"), retry=FAST_RETRY),
        FabricConfig(workers=1, poll=poll, heartbeat=0.25, missed_heartbeats=4,
                     retry=FAST_RETRY),
    )
    parent, child = mp.Pipe(duplex=True)
    process = mp.Process(target=_hang_up_and_linger, args=(child, linger),
                         daemon=True)
    process.start()
    child.close()
    assert parent.poll(10.0)  # hung up: every read is EOF from here on
    queue = supervisor.queue
    now = queue.clock()
    record, token = queue.lease("w-eof", now, 20.0)
    hung_up = WorkerHandle("w-eof", process, parent, unit=record.unit_id,
                           token=token, benchmark=record.benchmark,
                           last_beat=now, started=now)
    supervisor.handles.append(hung_up)

    passes = []
    reap = supervisor._reap

    def counting_reap(now: float) -> None:
        if hung_up in supervisor.handles:
            passes.append(now)
        reap(now)

    supervisor._reap = counting_reap
    supervisor.run()
    process.join(timeout=5.0)
    assert not process.is_alive()
    assert record.state == DONE and record.crash_workers == ["w-eof"]
    assert len(passes) <= linger / poll + 5


def test_unit_handed_to_a_dead_worker_is_revoked_at_once():
    # The hand-off fails, so the lease must not wait out its 20 s.
    supervisor = FabricSupervisor(
        Scheduler(tiny_tasks("alvinn")),
        FabricConfig(workers=1, lease=20.0),
    )
    handle = supervisor._spawn()
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=10.0)
    assert not handle.process.is_alive()
    started = time.monotonic()
    supervisor._assign(supervisor.queue.clock())
    supervisor.run()
    assert time.monotonic() - started < 5.0
    [unit_id] = supervisor.scheduler.order
    record = supervisor.queue[unit_id]
    assert record.state == DONE
    assert [e["action"] for e in record.lease_history] == [
        "lease", "expire", "lease", "complete"]
    assert record.lease_history[1]["detail"] == (
        f"worker {handle.worker_id} gone before hand-off")
    assert record.crash_workers == []
    # The failed hand-off costs no attempt: the completing lease is attempt 1.
    assert [e["attempt"] for e in record.lease_history[2:]] == [1, 1]
    assert record.attempts == 1
