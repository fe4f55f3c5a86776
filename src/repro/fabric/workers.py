"""The supervised worker pool: heartbeats, leases, poison quarantine.

The supervisor owns a :class:`~repro.fabric.scheduler.Scheduler` and a
set of worker *processes*, each connected over a duplex pipe.  Every
assignment is a lease from the durable queue; every worker heartbeats
while it holds one.  The supervisor's loop then enforces the fabric's
robustness properties:

* a worker that **dies** (crash, OOM kill, injected ``kill-worker``) is
  detected by process liveness, its unit is charged a crash and
  re-leased, and a fresh worker is spawned in its place;
* a worker that **stalls** (hang, injected ``stall-worker``) stops
  heartbeating; after ``missed_heartbeats`` intervals the supervisor
  kills and replaces it — a frozen worker can delay a unit, never the
  sweep;
* an **expired lease** (timeout or injected ``expire-lease``) is revoked
  and the unit re-leased to a healthy worker; the original worker's late
  result arrives under a stale token and is *rejected* — a unit can be
  attempted twice, but never counted twice;
* a unit that overruns the per-unit wall-clock budget
  (``FabricConfig.timeout``) has its worker killed even while its
  heartbeats still flow (a livelocked unit), and is failed as a
  non-retryable ``timeout`` — never charged as a crash, so a slow unit
  cannot be quarantined as poison;
* a worker whose supervisor disappears (SIGKILL) exits on its next
  heartbeat tick instead of lingering as an orphan;
* a unit that crashes ``poison_threshold`` distinct workers is
  **quarantined** by the scheduler as a poison unit — recorded with its
  tracebacks, reported, never retried;
* **SIGINT/SIGTERM** trigger a drain: no new leases, in-flight units get
  ``drain_timeout`` seconds to finish, outstanding leases are revoked so
  the durable queue is cleanly resumable, and the pool shuts down.

Between passes the loop blocks in one wait that a worker's message, a
worker's exit, or a remote commit or fail ends at once.  The timers
above run on the queue clock and are checked at most
``FabricConfig.poll`` late.

Workers execute :func:`repro.runner.runner.execute_unit` — exactly the
unit body of the runner's inline path — so everything the pipeline
already validates (invariants, lint, oracle, proofs) holds unchanged
under the fabric.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.process import BaseProcess
from pathlib import Path
from types import FrameType
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..runner.errors import TransientError, classify, stage_of
from ..runner.faults import (
    FABRIC_KILL_EXIT,
    FABRIC_POISON_EXIT,
    FaultInjector,
    FaultPlan,
)
from ..runner.retry import RetryPolicy
from ..runner.runner import (
    BenchmarkFailure,
    SuiteRunResult,
    UnitTask,
    execute_unit,
    payload_to_result,
)
from .scheduler import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    Scheduler,
    UnitRecord,
)


@dataclass(frozen=True)
class FabricConfig:
    """How the fabric schedules, supervises and persists a sweep."""

    #: Concurrent worker processes.
    workers: int = 2
    #: Lease duration in seconds: a unit not completed (or heartbeat-
    #: renewed) within this window is revoked and re-leased.
    lease: float = 30.0
    #: Heartbeat interval; None derives one from the lease duration.
    heartbeat: Optional[float] = None
    #: Heartbeats a busy worker may miss before it is declared stalled,
    #: killed, and replaced.
    missed_heartbeats: int = 3
    #: Distinct workers a unit may crash before it is quarantined.
    poison_threshold: int = 2
    retry: RetryPolicy = RetryPolicy()
    #: Durable queue directory (None runs the queue in memory).
    queue_dir: Optional[Union[str, Path]] = None
    #: Resume the queue directory instead of starting the sweep fresh.
    resume: bool = False
    #: Deterministic fault plan (chaos mode).
    faults: Optional[FaultPlan] = None
    #: Grace period for in-flight units on SIGINT/SIGTERM drain.
    drain_timeout: float = 10.0
    #: Longest wait between checks of the queue-clock timers (lease
    #: expiry, stalls, the wall-clock budget, retry backoff, drain).
    #: Worker messages, worker exits and remote commits wake the
    #: supervisor at once.
    poll: float = 0.02
    #: Seed for the retry-backoff jitter.
    seed: int = 0
    #: ``[HOST:]PORT`` to serve the socket tier on (``0`` = ephemeral
    #: port).  None keeps the sweep local-only.  With a listener, remote
    #: workers lease from the same queue as the local pipe workers — and
    #: ``workers=0`` runs a coordinator-only sweep.
    listen: Optional[str] = None
    #: Per-unit wall-clock budget in seconds (None = unlimited), enforced
    #: on the local pipe workers: a unit leased longer is failed as a
    #: non-retryable ``timeout`` and its worker killed.
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.workers < 1 and self.listen is None:
            raise ValueError("workers must be >= 1 unless listen is set")
        if self.lease <= 0:
            raise ValueError("lease must be positive")
        if self.heartbeat is not None and self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.missed_heartbeats < 1:
            raise ValueError("missed_heartbeats must be >= 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")
        if self.poll <= 0:
            raise ValueError("poll must be positive")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.timeout is not None and self.listen is not None:
            raise ValueError(
                "timeout is enforced on local pipe workers only; "
                "it cannot be combined with listen"
            )

    @property
    def heartbeat_interval(self) -> float:
        """Effective heartbeat period (at most a quarter of the lease)."""
        if self.heartbeat is not None:
            return self.heartbeat
        return max(0.02, min(1.0, self.lease / 4.0))

    @property
    def stall_after(self) -> float:
        """Silence longer than this declares a busy worker stalled."""
        return self.missed_heartbeats * self.heartbeat_interval


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn: Any,
    worker_id: str,
    heartbeat_interval: float,
    faults: Optional[FaultPlan],
) -> None:
    """One supervised worker: receive leases, heartbeat, execute units.

    Messages to the supervisor: ``("heartbeat", unit, token)``,
    ``("ok", unit, token, payload)``, ``("err", unit, token, failure,
    retryable)`` and ``("dying", unit, token, traceback)`` — the last
    one flushed right before an injected poison death so the supervisor
    has the traceback evidence the quarantine report records.
    """
    try:  # the supervisor drives shutdown; workers ignore ^C themselves
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    injector = FaultInjector(faults)
    supervisor = os.getppid()
    send_lock = threading.Lock()
    current: Dict[str, Any] = {"unit": None, "token": 0}
    stalled = threading.Event()
    stopping = threading.Event()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # supervisor is gone
                stopping.set()

    def beat() -> None:
        while not stopping.wait(heartbeat_interval):
            if os.getppid() != supervisor:
                # Orphaned: the supervisor died without closing our pipe
                # (forked siblings hold copies of its ends, so recv()
                # never sees EOF).  Nobody will read our result.
                os._exit(0)
            if stalled.is_set():
                continue  # an injected stall: fall silent, stay alive
            unit = current["unit"]
            if unit is not None:
                send(("heartbeat", unit, current["token"]))

    threading.Thread(target=beat, name=f"{worker_id}-heartbeat", daemon=True).start()

    while not stopping.is_set():
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "stop":
            break
        if message[0] != "run":
            continue
        task: UnitTask = message[1]
        unit_id: str = message[2]
        token: int = message[3]
        current["token"] = token
        current["unit"] = unit_id

        fault = injector.fabric_fault(
            task.benchmark,
            task.attempt,
            ("kill-worker", "stall-worker", "poison-unit"),
        )
        if fault is not None and fault.kind == "kill-worker":
            os._exit(FABRIC_KILL_EXIT)
        if fault is not None and fault.kind == "poison-unit":
            send(
                (
                    "dying",
                    unit_id,
                    token,
                    f"injected poison unit: {task.benchmark!r} crashes every "
                    f"worker it is assigned to (worker {worker_id}, "
                    f"attempt {task.attempt})",
                )
            )
            time.sleep(0.05)  # let the pipe flush before dying
            os._exit(FABRIC_POISON_EXIT)
        if fault is not None and fault.kind == "stall-worker":
            stalled.set()
            time.sleep(fault.hang_seconds)  # the supervisor must kill us

        try:
            payload = execute_unit(task)
        except Exception as exc:
            failure = {
                "stage": stage_of(exc),
                "kind": classify(exc),
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
            send(("err", unit_id, token, failure, isinstance(exc, TransientError)))
        else:
            send(("ok", unit_id, token, payload))
        current["unit"] = None

    stopping.set()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: str
    process: BaseProcess
    conn: Any
    unit: Optional[str] = None
    token: int = 0
    benchmark: str = ""
    last_beat: float = 0.0
    #: When the worker was handed its current unit (the budget's origin).
    started: float = 0.0
    dying_note: Optional[str] = None
    #: The pipe reached EOF or broke: the worker gets no more units, and
    #: the supervisor waits on its exit only, until it is reaped.
    hung_up: bool = False


class _Wakeup:
    """A self-pipe the supervisor's wait selects on, set from any thread."""

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)

    def fileno(self) -> int:
        return self._read

    def set(self) -> None:
        try:
            os.write(self._write, b"\0")
        except BlockingIOError:
            pass  # a full pipe already holds a pending wake-up

    def clear(self) -> None:
        try:
            while os.read(self._read, 4096):
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


class FabricSupervisor:
    """Drives a scheduler's queue to completion over supervised workers."""

    def __init__(self, scheduler: Scheduler, config: FabricConfig) -> None:
        self.scheduler = scheduler
        self.queue = scheduler.queue
        self.config = config
        self.injector = FaultInjector(config.faults)
        self.handles: List[WorkerHandle] = []
        self._serial = 0
        self.draining = False
        self.drain_reason = ""
        self._corrupted: Set[str] = set()
        #: Units completed by this supervisor (vs. restored on resume).
        self.executed: List[str] = []
        #: Shared with the socket-tier coordinator: its handler threads
        #: and this loop interleave on the queue under one re-entrant
        #: lock, so local and remote workers see one state machine.
        self.lock = threading.RLock()
        self.coordinator: Optional[Any] = None
        #: Set by the coordinator's handler threads after a remote commit
        #: or fail, so the loop wakes without waiting out ``poll``.
        self._wakeup: Optional[_Wakeup] = None
        self.remote_summary: Optional[Dict[str, object]] = None
        #: Called with ``(host, port)`` once the socket tier is bound —
        #: loopback fleets and tests learn the ephemeral port here.
        self.on_listening: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> WorkerHandle:
        self._serial += 1
        worker_id = f"w{self._serial:03d}"
        parent_conn, child_conn = mp.Pipe(duplex=True)
        process = mp.Process(
            target=_worker_main,
            args=(child_conn, worker_id, self.config.heartbeat_interval,
                  self.config.faults),
            name=f"fabric-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            last_beat=self.queue.clock(),
        )
        self.handles.append(handle)
        return handle

    def request_drain(self, reason: str) -> None:
        """Stop leasing; in-flight units get the drain grace period."""
        self.draining = True
        self.drain_reason = reason

    def _start_coordinator(self) -> None:
        from .remote import CoordinatorServer
        from .transport import parse_address

        assert self.config.listen is not None
        host, port = parse_address(self.config.listen)
        self._wakeup = _Wakeup()
        self.coordinator = CoordinatorServer(
            (host, port),
            self.scheduler,
            lock=self.lock,
            lease_duration=self.config.lease,
            faults=self.config.faults,
            on_settle=self._remote_settled,
            drain_check=lambda: self.draining,
        ).launch()
        if self.on_listening is not None:
            self.on_listening(self.coordinator.address)

    def _remote_settled(self, unit_id: str, state: str) -> None:
        """A remote commit or fail landed (called under the lock)."""
        if state == DONE:
            self.executed.append(unit_id)
        if self._wakeup is not None:
            self._wakeup.set()

    def _stop_coordinator(self) -> None:
        if self.coordinator is not None:
            self.remote_summary = self.coordinator.summary()
            self.coordinator.stop()
            self.coordinator = None
        # Handler threads may outlive the server; they set the wake-up
        # under the lock, so it is closed under the lock too.
        with self.lock:
            wakeup, self._wakeup = self._wakeup, None
            if wakeup is not None:
                wakeup.close()

    # -- loop steps ----------------------------------------------------
    def _pump(self, handle: WorkerHandle, now: float) -> None:
        """Absorb every message one worker has queued up."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.hung_up = True  # dead worker; the reaper handles it
                return
            if not isinstance(message, tuple) or not message:
                continue
            kind = message[0]
            if kind == "heartbeat":
                _k, unit_id, token = message
                handle.last_beat = now
                self.queue.heartbeat(unit_id, token, now)
            elif kind == "ok":
                _k, unit_id, token, payload = message
                handle.last_beat = now
                # Persist the payload *before* the record flips to done,
                # and only under a current lease — a revoked lease's late
                # result is dropped here, never double-counted.
                if self.queue.holds(unit_id, token):
                    self.scheduler.put_payload(unit_id, payload)
                    self.queue.complete(unit_id, token, now)
                    self.executed.append(unit_id)
                if handle.unit == unit_id:
                    handle.unit = None
            elif kind == "err":
                _k, unit_id, token, failure, retryable = message
                handle.last_beat = now
                self.queue.fail(unit_id, token, dict(failure), bool(retryable), now)
                if handle.unit == unit_id:
                    handle.unit = None
            elif kind == "dying":
                _k, _unit_id, _token, note = message
                handle.dying_note = str(note)

    def _discard(self, handle: WorkerHandle) -> None:
        if handle in self.handles:
            self.handles.remove(handle)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _reap(self, now: float) -> None:
        """Detect dead workers; charge their units a crash; replace them."""
        for handle in list(self.handles):
            if handle.process.is_alive():
                continue
            self._pump(handle, now)  # drain any last words (e.g. "dying")
            if handle.unit is not None:
                note = handle.dying_note or (
                    f"worker {handle.worker_id} exited with code "
                    f"{handle.process.exitcode} while {handle.benchmark} "
                    f"was in flight"
                )
                self.queue.crash(
                    handle.unit, handle.token, handle.worker_id, note, now
                )
            self._discard(handle)

    def _kill(self, handle: WorkerHandle) -> None:
        """Terminate one worker and drop it from the pool."""
        handle.unit = None
        try:
            handle.process.terminate()
        except Exception:  # pragma: no cover - process already gone
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():  # pragma: no cover - stubborn child
            handle.process.kill()
            handle.process.join(timeout=2.0)
        self._discard(handle)

    def _detect_stalls(self, now: float) -> None:
        """Kill every busy worker gone silent, charging its unit a crash."""
        for handle in list(self.handles):
            if handle.unit is None:
                continue
            silent = now - handle.last_beat
            if silent > self.config.stall_after:
                self.queue.crash(
                    handle.unit, handle.token, handle.worker_id,
                    f"worker {handle.worker_id} missed "
                    f"{self.config.missed_heartbeats} heartbeat(s) "
                    f"({silent:.2f}s silent) and was killed",
                    now,
                )
                self._kill(handle)

    def _enforce_budget(self, now: float) -> None:
        """Fail every unit that overran the wall-clock budget; kill its worker.

        The unit is failed, not crashed, so the overrun never counts
        toward poison quarantine.
        """
        budget = self.config.timeout
        if budget is None:
            return
        for handle in list(self.handles):
            if handle.unit is None or now - handle.started <= budget:
                continue
            self.queue.fail(
                handle.unit, handle.token,
                {"stage": "fabric", "kind": "timeout",
                 "message": f"{handle.benchmark} exceeded the {budget:g}s "
                            f"wall-clock budget and its worker was killed"},
                False, now,
            )
            self._kill(handle)

    def _supervisor_faults(self, record: UnitRecord, now: float) -> None:
        """Apply the supervisor-side fabric faults to a fresh lease."""
        if self.injector.fabric_fault(
            record.benchmark, record.attempts, ("expire-lease",)
        ) is not None:
            self.queue.force_expire(record.unit_id, now)
        if record.unit_id not in self._corrupted and self.injector.fabric_fault(
            record.benchmark, record.attempts, ("corrupt-queue",)
        ) is not None:
            path = self.queue.unit_path(record.unit_id)
            if path is not None and self.injector.corrupt_queue_record(path):
                self._corrupted.add(record.unit_id)

    def _assign(self, now: float) -> None:
        if self.draining:
            return
        for handle in self.handles:
            if handle.unit is not None or handle.hung_up:
                continue
            leased = self.queue.lease(handle.worker_id, now, self.config.lease)
            if leased is None:
                return  # nothing runnable right now
            record, token = leased
            task = record.task
            if task is None:  # pragma: no cover - defensive
                self.queue.fail(
                    record.unit_id, token,
                    {"kind": "fabric", "stage": "fabric",
                     "message": "unit record has no executable task"},
                    False, now,
                )
                continue
            # A plan stamped on the task (run_units does) must reach the
            # worker; the sweep-wide plan covers tasks that carry none.
            faults = task.faults if task.faults is not None else self.config.faults
            task = replace(task, attempt=record.attempts, faults=faults)
            handle.unit = record.unit_id
            handle.token = token
            handle.benchmark = record.benchmark
            handle.last_beat = now
            handle.started = now
            handle.dying_note = None
            try:
                handle.conn.send(("run", task, record.unit_id, token))
            except (BrokenPipeError, OSError):
                # The unit never reached a worker: no crash to charge,
                # and nobody to wait for until the lease expires.
                handle.unit = None
                handle.hung_up = True
                self.queue.revoke(
                    record.unit_id, now,
                    detail=f"worker {handle.worker_id} gone before hand-off",
                )
                continue
            self._supervisor_faults(record, now)

    def _busy(self) -> List[WorkerHandle]:
        return [h for h in self.handles if h.unit is not None]

    def _waitables(self) -> List[Any]:
        """What ends the wait: a worker's message or exit, a remote commit.

        A hung-up pipe stays readable, so only its worker's exit is
        waited on, or every wait would return at once until the reap.
        """
        waitables: List[Any] = []
        for handle in self.handles:
            if not handle.hung_up:
                waitables.append(handle.conn)
            waitables.append(handle.process.sentinel)
        if self._wakeup is not None:
            waitables.append(self._wakeup)
        return waitables

    # -- the loop ------------------------------------------------------
    def run(self) -> None:
        from multiprocessing.connection import wait

        drain_deadline: Optional[float] = None
        try:
            if self.config.listen is not None:
                self._start_coordinator()
            while True:
                # One pass under the shared lock: coordinator handler
                # threads mutate the queue between passes, never during.
                with self.lock:
                    if self._wakeup is not None:
                        self._wakeup.clear()
                    now = self.queue.clock()
                    self._reap(now)
                    for handle in list(self.handles):
                        self._pump(handle, now)
                    self.queue.expire(now)
                    self._detect_stalls(now)
                    self._enforce_budget(now)
                    if not self.draining:
                        while len(self.handles) < self.config.workers:
                            self._spawn()
                        self._assign(now)
                    if self.queue.settled():
                        # Workers still computing hold only stale leases —
                        # their late results would be rejected anyway.
                        return
                    if self.draining:
                        if drain_deadline is None:
                            drain_deadline = now + self.config.drain_timeout
                        if not self._busy() or now >= drain_deadline:
                            for record in self.queue.in_state(LEASED):
                                self.queue.revoke(
                                    record.unit_id, now,
                                    detail=f"drained ({self.drain_reason})",
                                )
                            return
                    waitables = self._waitables()
                # The timers above run on the queue clock: a pass comes at
                # least every ``poll`` seconds even when nothing wakes it.
                ready = wait(waitables, timeout=self.config.poll)
                for handle in self.handles:
                    if handle.process.sentinel in ready:
                        # The worker is exiting, but liveness lags its
                        # sentinel by a few ms: join, or the passes spin
                        # until the reap sees it dead.
                        handle.process.join(timeout=1.0)
        finally:
            self._stop_coordinator()
            self._shutdown()

    def _shutdown(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self.handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in self.handles:
            if handle.process.is_alive():
                try:
                    handle.process.terminate()
                except Exception:  # pragma: no cover
                    pass
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - stubborn child
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self.handles.clear()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
@dataclass
class FabricRunResult:
    """Everything a fabric sweep produced, losses and provenance included."""

    scheduler: Scheduler
    #: Completed unit results in sweep order.
    results: List[object]
    failures: List[BenchmarkFailure]
    #: Poison units: quarantined records with their crash evidence.
    quarantined: List[UnitRecord]
    #: Unit ids restored from a resumed queue instead of re-run.
    resumed: List[str]
    #: Unit ids executed (completed) by this run.
    executed: List[str]
    #: True when the run was drained by SIGINT/SIGTERM before settling.
    drained: bool = False
    drain_reason: str = ""
    #: Socket-tier summary (listen address, sessions, remote completions,
    #: rejections, faults fired) when the sweep served remote workers.
    remote: Optional[Dict[str, object]] = None

    @property
    def partial(self) -> bool:
        return bool(self.failures or self.quarantined or not self.settled)

    @property
    def settled(self) -> bool:
        return self.scheduler.settled()

    def counts(self) -> Dict[str, int]:
        return self.scheduler.counts()

    def payload(self, unit_id: str) -> Optional[Dict[str, object]]:
        """A done unit's result payload (None for any other state)."""
        if self.scheduler.record(unit_id).state != DONE:
            return None
        return self.scheduler.get_payload(unit_id)

    def to_suite_result(self) -> SuiteRunResult:
        """Bridge to the runner's result type (tables, banners).

        Quarantined units become ``poison`` failures, and units a drain
        left unsettled become ``drained`` failures, so a lossy run is
        always ``partial``.
        """
        failures = list(self.failures)
        for unit_id in self.scheduler.order:
            record = self.scheduler.record(unit_id)
            if record.state in (PENDING, LEASED):
                failures.append(
                    BenchmarkFailure(
                        benchmark=record.benchmark,
                        stage="fabric",
                        kind="drained",
                        message=f"drained ({self.drain_reason}) before the "
                                f"unit finished; resume to run it",
                        attempts=record.attempts,
                        retryable=False,
                    )
                )
        for record in self.quarantined:
            failure = record.failure or {}
            failures.append(
                BenchmarkFailure(
                    benchmark=record.benchmark,
                    stage="fabric",
                    kind="poison",
                    message=str(failure.get("message", "quarantined poison unit")),
                    attempts=record.attempts,
                    retryable=False,
                )
            )
        return SuiteRunResult(
            results=list(self.results),
            failures=failures,
            skipped=[self.scheduler.record(u).benchmark for u in self.resumed],
            executed=[self.scheduler.record(u).benchmark for u in self.executed],
            checkpoint=self.scheduler.root,
        )


def _failure_from_record(record: UnitRecord) -> BenchmarkFailure:
    failure = record.failure or {}
    return BenchmarkFailure(
        benchmark=record.benchmark,
        stage=str(failure.get("stage", "fabric")),
        kind=str(failure.get("kind", "error")),
        message=str(failure.get("message", "unit failed")),
        attempts=record.attempts,
        retryable=False,
    )


def run_fabric(
    tasks: Sequence[UnitTask],
    config: Optional[FabricConfig] = None,
    on_listening: Optional[Any] = None,
) -> FabricRunResult:
    """Run a sweep's units through the fault-tolerant fabric.

    SIGINT/SIGTERM (when this is the main thread) trigger a graceful
    drain instead of an abrupt death: in-flight units get
    ``drain_timeout`` seconds, outstanding leases are revoked, and —
    with a durable ``queue_dir`` — ``resume=True`` later picks the sweep
    up with no lost or duplicated units.

    With ``config.listen`` set, a socket-tier coordinator serves remote
    workers from the same queue; ``on_listening`` receives the bound
    ``(host, port)`` (useful with an ephemeral port).
    """
    config = config or FabricConfig()
    scheduler = Scheduler(
        tasks,
        root=config.queue_dir,
        resume=config.resume,
        poison_threshold=config.poison_threshold,
        retry=config.retry,
        seed=config.seed,
    )
    supervisor = FabricSupervisor(scheduler, config)
    supervisor.on_listening = on_listening

    previous: Dict[int, Any] = {}

    def _drain_handler(signum: int, _frame: Optional[FrameType]) -> None:
        supervisor.request_drain(signal.Signals(signum).name)

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _drain_handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        supervisor.run()
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except ValueError:  # pragma: no cover
                pass

    results: List[object] = []
    failures: List[BenchmarkFailure] = []
    quarantined: List[UnitRecord] = []
    for unit_id in scheduler.order:
        record = scheduler.record(unit_id)
        if record.state == DONE:
            payload = scheduler.get_payload(unit_id)
            if payload is not None:
                results.append(payload_to_result(payload))
        elif record.state == FAILED:
            failures.append(_failure_from_record(record))
        elif record.state == QUARANTINED:
            quarantined.append(record)
    return FabricRunResult(
        scheduler=scheduler,
        results=results,
        failures=failures,
        quarantined=quarantined,
        resumed=list(scheduler.resumed),
        executed=list(supervisor.executed),
        drained=supervisor.draining,
        drain_reason=supervisor.drain_reason,
        remote=supervisor.remote_summary,
    )
