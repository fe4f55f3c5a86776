"""The fabric's socket tier: remote workers leasing units over TCP.

PR 6 built the local pipe tier — a supervisor, worker *processes*, and a
durable lease queue.  This module adds the multi-host tier on top of the
same queue: a :class:`CoordinatorServer` speaks the frame protocol of
:mod:`repro.fabric.transport` and lets workers anywhere lease units,
heartbeat, stream results back, and get revoked.  The design rule is
that the queue's lease-token state machine stays the **single source of
truth** — the socket tier adds exactly one new concept, the *session
epoch*, and everything else is already enforced by lease tokens:

* **Session epochs.**  Every (re)connection of a worker registers a new,
  monotonically increasing epoch.  A partitioned worker that reconnects
  gets a fresh epoch; any message still carrying the old epoch (a
  delayed frame from the dead connection, a duplicate in flight) is
  rejected as ``stale-epoch`` before it ever reaches the queue.  Same
  invariant as PR 6's stale lease tokens: attempted twice, never
  counted twice.
* **Reconnect with full-jitter backoff.**  The client reuses the
  runner's :class:`~repro.runner.retry.RetryPolicy` — seeded full
  jitter, cumulative wall-clock budget — so a coordinator restart does
  not get a thundering herd of synchronized reconnects.
* **Resumable uploads.**  Results stream up in chunks keyed by
  ``(unit, payload digest)``.  The buffer survives reconnects, the
  ``offer`` handshake reports which chunks the coordinator already has,
  and ``commit`` verifies the SHA-256 of the assembled payload before
  the queue ever flips the unit to done — per-host partial stores
  federate into the consolidated report only through verified digests.
* **Graceful degradation.**  The coordinator is passive: with zero
  remote workers registered (or all of them dead), local pipe-tier
  workers drain the same queue to completion.  A vanished remote
  worker's lease simply expires and the unit is re-leased, exactly like
  a killed local worker.

:class:`LeaseGate` is the pure (socket-free) composition of the epoch
gate and the token gate; the property tests drive it directly with
reconnect/stale-epoch transitions.
"""

from __future__ import annotations

import hashlib
import json
import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..runner.faults import FaultPlan, FaultSpec
from ..runner.retry import RetryPolicy, retry_rng
from ..runner.runner import UnitTask, execute_unit
from ..runner.store import ArtifactStore
from .scheduler import DONE, SCHEMA_VERSION, FabricError, JobQueue, Scheduler
from .transport import (
    PROTOCOL_VERSION,
    FaultyTransport,
    NetworkChaos,
    Transport,
    TransportError,
    connect,
    parse_address,
)

__all__ = [
    "CoordinatorServer",
    "LeaseGate",
    "RemoteWorker",
    "SessionTable",
    "WorkerConfig",
    "WorkerThread",
    "launch_workers",
    "probe_coordinator",
    "task_from_wire",
    "task_to_wire",
]


# ----------------------------------------------------------------------
# Task wire codec
# ----------------------------------------------------------------------
def task_to_wire(task: UnitTask) -> Dict[str, Any]:
    """Serialise a :class:`UnitTask` for the JSON frame protocol."""
    data: Dict[str, Any] = asdict(task)
    if task.trace_cache is not None:
        data["trace_cache"] = str(task.trace_cache)
    return data


def task_from_wire(data: Dict[str, Any]) -> UnitTask:
    """Rebuild a :class:`UnitTask` from its wire form."""
    fields = dict(data)
    fields["archs"] = tuple(fields.get("archs", ()))
    faults = fields.get("faults")
    if faults is not None:
        fields["faults"] = FaultPlan(
            specs=tuple(FaultSpec(**spec) for spec in faults.get("specs", ())),
            seed=int(faults.get("seed", 0)),
        )
    alpha = fields.get("alpha_config")
    if alpha is not None:
        from ..sim.alpha import AlphaConfig

        fields["alpha_config"] = AlphaConfig(**alpha)
    return UnitTask(**fields)


# ----------------------------------------------------------------------
# Session epochs
# ----------------------------------------------------------------------
class SessionTable:
    """Monotonic per-worker session epochs.

    Each (re)registration of a worker name bumps its epoch; only the
    newest epoch is valid.  A message carrying an older epoch is, by
    construction, a leftover of a connection the worker itself has
    already abandoned — rejecting it can never lose work, only prevent
    double-counting it.
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, int] = {}
        self._lock = threading.Lock()

    def register(self, worker: str) -> int:
        with self._lock:
            epoch = self._epochs.get(worker, 0) + 1
            self._epochs[worker] = epoch
            return epoch

    def valid(self, worker: str, epoch: int) -> bool:
        with self._lock:
            return self._epochs.get(worker) == epoch and epoch > 0

    def current(self, worker: str) -> int:
        with self._lock:
            return self._epochs.get(worker, 0)

    def workers(self) -> List[str]:
        with self._lock:
            return sorted(self._epochs)


class LeaseGate:
    """Epoch gate + lease-token gate over a :class:`JobQueue`.

    Pure and socket-free: every queue-mutating message of the wire
    protocol funnels through here, and the property tests drive exactly
    this object through reconnect/stale-epoch transitions.  Each method
    returns ``(outcome, reason)`` where a non-empty reason explains a
    rejection structurally (``stale-epoch`` / ``stale-lease``).
    """

    def __init__(self, queue: JobQueue, sessions: Optional[SessionTable] = None):
        self.queue = queue
        self.sessions = sessions if sessions is not None else SessionTable()
        #: Rejections by reason (observability; claim 17 evidence).
        self.rejections: Dict[str, int] = {}

    def register(self, worker: str) -> int:
        """(Re)connect a worker: invalidates every prior epoch it held."""
        return self.sessions.register(worker)

    def _reject(self, reason: str) -> str:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        return reason

    def lease(
        self, worker: str, epoch: int, now: float, duration: float
    ) -> Tuple[Optional[Tuple[Any, int]], str]:
        if not self.sessions.valid(worker, epoch):
            return None, self._reject("stale-epoch")
        return self.queue.lease(worker, now, duration), ""

    def heartbeat(
        self, worker: str, epoch: int, unit_id: str, token: int, now: float
    ) -> Tuple[bool, str]:
        if not self.sessions.valid(worker, epoch):
            return False, self._reject("stale-epoch")
        if not self.queue.heartbeat(unit_id, token, now):
            return False, self._reject("stale-lease")
        return True, ""

    def complete(
        self, worker: str, epoch: int, unit_id: str, token: int, now: float
    ) -> Tuple[bool, str]:
        if not self.sessions.valid(worker, epoch):
            return False, self._reject("stale-epoch")
        if not self.queue.complete(unit_id, token, now):
            return False, self._reject("stale-lease")
        return True, ""

    def fail(
        self,
        worker: str,
        epoch: int,
        unit_id: str,
        token: int,
        failure: Dict[str, object],
        retryable: bool,
        now: float,
    ) -> Tuple[str, str]:
        if not self.sessions.valid(worker, epoch):
            return "rejected", self._reject("stale-epoch")
        outcome = self.queue.fail(unit_id, token, failure, retryable, now)
        if outcome == "rejected":
            return outcome, self._reject("stale-lease")
        return outcome, ""

    def holds(self, unit_id: str, token: int) -> bool:
        return self.queue.holds(unit_id, token)


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class _ConnState:
    """Per-connection handshake state."""

    def __init__(self) -> None:
        self.worker: Optional[str] = None
        self.epoch: int = 0
        self.closing = False


class _CoordinatorHandler(socketserver.BaseRequestHandler):
    """One worker connection: recv frame, dispatch, send reply."""

    server: "CoordinatorServer"

    def handle(self) -> None:
        transport: Union[Transport, FaultyTransport]
        transport = Transport(self.request, timeout=self.server.io_timeout)
        if self.server.chaos is not None:
            transport = FaultyTransport(transport, self.server.chaos)
        state = _ConnState()
        self.server._connection_opened()
        try:
            while not state.closing:
                try:
                    message = transport.recv()
                except TransportError:
                    return  # dead/hostile peer; the worker reconnects
                reply = self.server.dispatch(message, state)
                if reply is None:
                    continue
                try:
                    transport.send(reply)
                except TransportError:
                    return  # injected partition or a real one — same path
        finally:
            self.server._connection_closed()
            transport.close()


class CoordinatorServer(socketserver.ThreadingTCPServer):
    """Serves the lease protocol over the supervisor's own job queue.

    Every queue mutation happens under ``lock`` — the same re-entrant
    lock the supervisor's loop holds — so local pipe workers and
    remote socket workers interleave on one consistent state machine.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: Scheduler,
        *,
        lock: Optional[Any] = None,
        lease_duration: float = 30.0,
        faults: Optional[FaultPlan] = None,
        on_settle: Optional[Callable[[str, str], None]] = None,
        drain_check: Optional[Callable[[], bool]] = None,
        io_timeout: float = 30.0,
    ) -> None:
        super().__init__(address, _CoordinatorHandler)
        self.scheduler = scheduler
        self.queue = scheduler.queue
        self.lock: Any = lock if lock is not None else threading.RLock()
        self.lease_duration = lease_duration
        self.gate = LeaseGate(self.queue)
        self.sessions = self.gate.sessions
        chaos = NetworkChaos.from_plan(faults)
        self.chaos: Optional[NetworkChaos] = chaos if chaos else None
        #: Called under ``lock`` with ``(unit, state)`` after a commit
        #: lands (``done``) or a fail is settled (``pending``/``failed``).
        self.on_settle = on_settle
        self.drain_check = drain_check
        self.io_timeout = io_timeout
        #: Resumable upload buffers: (unit, digest) -> {index: chunk text}.
        self.uploads: Dict[Tuple[str, str], Dict[int, str]] = {}
        self._expected_chunks: Dict[Tuple[str, str], int] = {}
        #: Units completed through the socket tier, in arrival order.
        self.remote_completed: List[str] = []
        self._open_connections = 0
        self._open_lock = threading.Lock()
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def launch(self) -> "CoordinatorServer":
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="fabric-coordinator",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, linger: float = 2.0) -> None:
        """Shut down, giving connected workers a moment to hear "drained"."""
        deadline = time.monotonic() + linger
        while time.monotonic() < deadline:
            with self._open_lock:
                if self._open_connections == 0:
                    break
            time.sleep(0.02)
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=2.0)

    def _connection_opened(self) -> None:
        with self._open_lock:
            self._open_connections += 1

    def _connection_closed(self) -> None:
        with self._open_lock:
            self._open_connections -= 1

    # -- observability -------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "listen": f"{self.address[0]}:{self.address[1]}",
            "workers": self.sessions.workers(),
            "remote_completed": list(self.remote_completed),
            "rejections": dict(self.gate.rejections),
            "faults_fired": dict(self.chaos.fired) if self.chaos is not None else {},
        }

    # -- dispatch ------------------------------------------------------
    def dispatch(
        self, message: Dict[str, Any], state: _ConnState
    ) -> Optional[Dict[str, Any]]:
        """Handle one request frame; returns the reply frame (seq echoed)."""
        kind = message.get("type")
        seq = message.get("seq")

        def reply(body: Dict[str, Any]) -> Dict[str, Any]:
            body["seq"] = seq
            return body

        if kind == "ping":
            return reply(
                {
                    "type": "pong",
                    "protocol": PROTOCOL_VERSION,
                    "schema": SCHEMA_VERSION,
                    "fingerprint": self.scheduler.fingerprint,
                    "units": len(self.queue.order),
                }
            )
        if kind == "hello":
            worker = str(message.get("worker", "?"))
            if message.get("protocol") != PROTOCOL_VERSION:
                return reply(
                    {
                        "type": "error",
                        "reason": "protocol-version",
                        "expected": PROTOCOL_VERSION,
                        "got": message.get("protocol"),
                    }
                )
            with self.lock:
                reattached = self.sessions.current(worker) > 0
                epoch = self.gate.register(worker)
            state.worker, state.epoch = worker, epoch
            return reply(
                {
                    "type": "welcome",
                    "epoch": epoch,
                    "protocol": PROTOCOL_VERSION,
                    "schema": SCHEMA_VERSION,
                    "fingerprint": self.scheduler.fingerprint,
                    "reattached": reattached,
                }
            )
        if kind == "bye":
            state.closing = True
            return reply({"type": "bye-ok"})

        worker = str(message.get("worker", "?"))
        epoch = int(message.get("epoch", 0))
        now = self.queue.clock()

        if kind == "lease":
            with self.lock:
                if not self.sessions.valid(worker, epoch):
                    self.gate._reject("stale-epoch")
                    return reply(
                        {"type": "lease-denied", "reason": "stale-epoch"}
                    )
                if (self.drain_check is not None and self.drain_check()) or (
                    self.queue.settled()
                ):
                    return reply({"type": "drained"})
                leased, _reason = self.gate.lease(
                    worker, epoch, now, self.lease_duration
                )
                if leased is None:
                    wait = self.queue.next_ready_delay(now)
                    return reply(
                        {
                            "type": "idle",
                            "retry_after": min(wait, 0.5) if wait else 0.1,
                        }
                    )
                record, token = leased
                task = record.task
                if task is None:  # pragma: no cover - defensive
                    self.queue.fail(
                        record.unit_id,
                        token,
                        {"kind": "fabric", "stage": "fabric",
                         "message": "unit record has no executable task"},
                        False,
                        now,
                    )
                    return reply({"type": "idle", "retry_after": 0.1})
                task = replace(task, attempt=record.attempts)
                return reply(
                    {
                        "type": "grant",
                        "unit": record.unit_id,
                        "token": token,
                        "task": task_to_wire(task),
                    }
                )
        if kind == "heartbeat":
            with self.lock:
                ok, reason = self.gate.heartbeat(
                    worker, epoch, str(message.get("unit")),
                    int(message.get("token", -1)), now,
                )
            return reply({"type": "beat", "ok": ok, "reason": reason})
        if kind == "offer":
            return reply(self._handle_offer(message, worker, epoch))
        if kind == "chunk":
            return reply(self._handle_chunk(message, worker, epoch))
        if kind == "commit":
            return reply(self._handle_commit(message, worker, epoch, now))
        if kind == "fail":
            failure = message.get("failure")
            unit_id = str(message.get("unit"))
            with self.lock:
                outcome, reason = self.gate.fail(
                    worker, epoch, unit_id,
                    int(message.get("token", -1)),
                    dict(failure) if isinstance(failure, dict) else {},
                    bool(message.get("retryable", False)), now,
                )
                if outcome != "rejected" and self.on_settle is not None:
                    self.on_settle(unit_id, outcome)
            return reply({"type": "fail-ok", "state": outcome, "reason": reason})
        return reply(
            {"type": "error", "reason": "unknown-message", "got": str(kind)}
        )

    # -- resumable uploads ---------------------------------------------
    def _already_merged(self, unit_id: str, digest: str) -> bool:
        """Whether this exact payload already completed the unit."""
        record = self.queue.records.get(unit_id)
        if record is None or record.state != DONE:
            return False
        payload = self.scheduler.get_payload(unit_id)
        if payload is None:
            return False
        from .report import payload_digest

        return payload_digest(payload) == digest

    def _handle_offer(
        self, message: Dict[str, Any], worker: str, epoch: int
    ) -> Dict[str, Any]:
        unit_id = str(message.get("unit"))
        token = int(message.get("token", -1))
        digest = str(message.get("digest", ""))
        chunks = int(message.get("chunks", 0))
        with self.lock:
            if not self.sessions.valid(worker, epoch):
                self.gate._reject("stale-epoch")
                return {"type": "offer-denied", "reason": "stale-epoch"}
            if self._already_merged(unit_id, digest):
                return {"type": "offer-ok", "done": True, "have": []}
            if not self.gate.holds(unit_id, token):
                self.gate._reject("stale-lease")
                return {"type": "offer-denied", "reason": "stale-lease"}
            key = (unit_id, digest)
            self._expected_chunks[key] = chunks
            have = sorted(self.uploads.get(key, {}))
            return {"type": "offer-ok", "done": False, "have": have}

    def _handle_chunk(
        self, message: Dict[str, Any], worker: str, epoch: int
    ) -> Dict[str, Any]:
        unit_id = str(message.get("unit"))
        digest = str(message.get("digest", ""))
        index = int(message.get("index", -1))
        data = message.get("data")
        with self.lock:
            if not self.sessions.valid(worker, epoch):
                self.gate._reject("stale-epoch")
                return {"type": "chunk-denied", "reason": "stale-epoch"}
            if index < 0 or not isinstance(data, str):
                return {"type": "chunk-denied", "reason": "malformed-chunk"}
            self.uploads.setdefault((unit_id, digest), {})[index] = data
            return {"type": "chunk-ok", "index": index}

    def _handle_commit(
        self, message: Dict[str, Any], worker: str, epoch: int, now: float
    ) -> Dict[str, Any]:
        unit_id = str(message.get("unit"))
        token = int(message.get("token", -1))
        digest = str(message.get("digest", ""))
        key = (unit_id, digest)
        with self.lock:
            if not self.sessions.valid(worker, epoch):
                self.gate._reject("stale-epoch")
                return {"type": "commit-denied", "reason": "stale-epoch"}
            if self._already_merged(unit_id, digest):
                # The previous commit's reply was lost in flight; the
                # work is merged exactly once — acknowledge, don't redo.
                return {"type": "commit-ok", "deduped": True}
            buffer = self.uploads.get(key, {})
            expected = self._expected_chunks.get(key, 0)
            missing = [i for i in range(expected) if i not in buffer]
            if expected < 1 or not buffer or missing:
                return {
                    "type": "commit-denied",
                    "reason": "incomplete-upload",
                    "have": sorted(buffer),
                }
            text = "".join(buffer[i] for i in range(expected))
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
                self.uploads.pop(key, None)
                return {"type": "commit-denied", "reason": "digest-mismatch"}
            if not self.gate.holds(unit_id, token):
                self.gate._reject("stale-lease")
                return {"type": "commit-denied", "reason": "stale-lease"}
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:  # pragma: no cover - digest-gated
                self.uploads.pop(key, None)
                return {"type": "commit-denied", "reason": "malformed-payload"}
            if not isinstance(payload, dict):  # pragma: no cover
                return {"type": "commit-denied", "reason": "malformed-payload"}
            # Digest verified, lease current: persist *then* flip to done
            # (the same ordering the local tier guarantees).
            self.scheduler.put_payload(unit_id, payload)
            self.queue.complete(unit_id, token, now)
            self.uploads.pop(key, None)
            self._expected_chunks.pop(key, None)
            self.remote_completed.append(unit_id)
            if self.on_settle is not None:
                self.on_settle(unit_id, DONE)
            return {"type": "commit-ok", "deduped": False}


# ----------------------------------------------------------------------
# The remote worker (client)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerConfig:
    """How one remote worker connects, heartbeats, and survives faults."""

    #: Coordinator address, ``[HOST:]PORT``.
    connect: str
    name: str = "remote"
    #: Per-RPC receive timeout: a dropped reply turns into a reconnect
    #: after this many seconds, never a hang.
    timeout: float = 5.0
    #: Full-jitter reconnect backoff (attempts + cumulative budget).
    reconnect: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8, base_delay=0.05, max_delay=1.0, max_total_delay=30.0
        )
    )
    #: Heartbeat interval while a lease is held.
    heartbeat: float = 0.5
    #: Per-host partial artifact store (SHA-256 manifested); results are
    #: persisted locally before they stream to the coordinator.
    store_dir: Optional[Union[str, Path]] = None
    #: Stop after completing this many units (None = run until drained).
    max_units: Optional[int] = None
    #: Test hook: after completing this many units, vanish abruptly
    #: while *holding* the next lease — models a host dying mid-sweep.
    abandon_after: Optional[int] = None
    #: Upload chunk size in characters of canonical payload JSON.
    chunk_size: int = 48 * 1024
    #: Seed for the reconnect jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


class _ConnectionLost(Exception):
    """Reconnect budget exhausted; the worker gives up."""


class RemoteWorker:
    """A socket-tier worker: lease, execute, heartbeat, upload, repeat."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.host, self.port = parse_address(config.connect)
        self.store = (
            ArtifactStore(config.store_dir) if config.store_dir else None
        )
        self._transport: Optional[Transport] = None
        self._epoch = 0
        self._seq = 0
        self._io_lock = threading.Lock()
        self._current: Optional[Tuple[str, int]] = None
        self._stop = threading.Event()
        self.reconnects = 0

    # -- connection management -----------------------------------------
    def _drop_connection(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def _connect(self) -> Transport:
        """Dial + handshake with seeded full-jitter backoff."""
        policy = self.config.reconnect
        rng = retry_rng(self.config.seed, f"remote:{self.config.name}")
        slept = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                transport = connect(self.host, self.port, timeout=self.config.timeout)
                welcome = self._rpc(
                    transport,
                    {
                        "type": "hello",
                        "worker": self.config.name,
                        "protocol": PROTOCOL_VERSION,
                    },
                )
                if welcome.get("type") == "error":
                    transport.close()
                    raise FabricError(
                        f"coordinator rejected {self.config.name}: "
                        f"{welcome.get('reason')} "
                        f"(expected {welcome.get('expected')!r}, "
                        f"got {welcome.get('got')!r})"
                    )
                if welcome.get("type") != "welcome":
                    transport.close()
                    raise TransportError(
                        "closed", f"unexpected handshake reply {welcome.get('type')!r}"
                    )
                self._epoch = int(welcome.get("epoch", 0))
                self._transport = transport
                return transport
            except TransportError:
                if attempt >= policy.max_attempts:
                    break
                delay = policy.delay(attempt, rng)
                if not policy.within_budget(slept, delay):
                    break
                time.sleep(delay)
                slept += delay
        raise _ConnectionLost(
            f"{self.config.name}: coordinator {self.host}:{self.port} "
            f"unreachable after {policy.max_attempts} attempt(s)"
        )

    def _rpc(
        self, transport: Transport, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One synchronous request/response, tolerant of duplicated frames."""
        with self._io_lock:
            self._seq += 1
            seq = self._seq
            message = dict(message)
            message["seq"] = seq
            transport.send(message)
            while True:
                reply = transport.recv()
                if reply.get("seq") == seq:
                    return reply
                # A duplicate or late frame from an earlier exchange —
                # discard and keep reading; the checksum already proved
                # it intact, the seq proves it stale.

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """RPC with transparent reconnect + re-handshake on any failure."""
        while True:
            transport = self._transport
            if transport is None:
                transport = self._connect()
                self.reconnects += 1
            body = dict(message)
            body["worker"] = self.config.name
            body["epoch"] = self._epoch
            try:
                return self._rpc(transport, body)
            except TransportError:
                self._drop_connection()
                # _connect re-applies the jittered backoff budget; if the
                # coordinator stays gone, _ConnectionLost propagates.

    # -- heartbeats ----------------------------------------------------
    def _beat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat):
            current = self._current
            transport = self._transport
            if current is None or transport is None:
                continue
            unit_id, token = current
            try:
                self._rpc(
                    transport,
                    {
                        "type": "heartbeat",
                        "worker": self.config.name,
                        "epoch": self._epoch,
                        "unit": unit_id,
                        "token": token,
                    },
                )
            except TransportError:
                pass  # the main loop owns reconnection

    # -- uploads -------------------------------------------------------
    def _upload(self, unit_id: str, token: int, payload: Dict[str, object]) -> bool:
        """Stream a result up in resumable chunks; True once merged."""
        from .report import canonical_json

        text = canonical_json(payload)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        size = self.config.chunk_size
        total = max(1, -(-len(text) // size))
        for _round in range(4):
            # Re-offer every round: the offer is idempotent, reports
            # which chunks the coordinator already buffered (resume!),
            # and re-declares the chunk count a restarted coordinator
            # no longer knows.
            offer = self._call(
                {
                    "type": "offer",
                    "unit": unit_id,
                    "token": token,
                    "digest": digest,
                    "chunks": total,
                }
            )
            if offer.get("type") == "offer-ok" and offer.get("done"):
                return True  # a lost commit-ok: merged once, not twice
            if offer.get("type") != "offer-ok":
                return False  # stale-epoch / stale-lease
            have: Set[int] = {int(i) for i in offer.get("have", [])}
            for index in range(total):
                if index in have:
                    continue
                self._call(
                    {
                        "type": "chunk",
                        "unit": unit_id,
                        "digest": digest,
                        "index": index,
                        "data": text[index * size:(index + 1) * size],
                    }
                )
            verdict = self._call(
                {
                    "type": "commit",
                    "unit": unit_id,
                    "token": token,
                    "digest": digest,
                }
            )
            if verdict.get("type") == "commit-ok":
                return True
            if verdict.get("reason") not in ("incomplete-upload", "digest-mismatch"):
                return False  # attempted twice must never count twice
        return False

    # -- the worker loop -----------------------------------------------
    def stop(self) -> None:
        self._stop.set()

    def run(self) -> Dict[str, object]:
        """Work the queue until drained; returns a run summary."""
        completed: List[str] = []
        failed: List[str] = []
        stale = 0
        reason = "drained"
        beat = threading.Thread(
            target=self._beat_loop,
            name=f"{self.config.name}-heartbeat",
            daemon=True,
        )
        try:
            self._connect()
            self.reconnects = 0  # the first dial is not a *re*connect
            beat.start()
            while not self._stop.is_set():
                if (
                    self.config.max_units is not None
                    and len(completed) >= self.config.max_units
                ):
                    reason = "max-units"
                    break
                granted = self._call({"type": "lease"})
                kind = granted.get("type")
                if kind == "drained":
                    reason = "drained"
                    break
                if kind == "idle":
                    time.sleep(float(granted.get("retry_after", 0.1)))
                    continue
                if kind != "grant":
                    continue  # stale-epoch denial heals on the next call
                unit_id = str(granted.get("unit"))
                token = int(granted.get("token", -1))
                if (
                    self.config.abandon_after is not None
                    and len(completed) >= self.config.abandon_after
                ):
                    # Die abruptly *holding* the lease: no fail message,
                    # no bye — the coordinator must recover via expiry.
                    self._drop_connection()
                    reason = "abandoned"
                    break
                self._current = (unit_id, token)
                try:
                    task = task_from_wire(granted["task"])
                    payload = execute_unit(task)
                except _ConnectionLost:
                    raise
                except Exception as exc:
                    self._call(
                        {
                            "type": "fail",
                            "unit": unit_id,
                            "token": token,
                            "failure": {
                                "kind": "error",
                                "stage": "fabric",
                                "message": f"{type(exc).__name__}: {exc}",
                            },
                            "retryable": False,
                        }
                    )
                    failed.append(unit_id)
                    self._current = None
                    continue
                if self.store is not None:
                    # Per-host federation: the partial result lands in
                    # this host's manifested store before it streams up.
                    self.store.put(f"fabric/{unit_id}", payload)
                if self._upload(unit_id, token, payload):
                    completed.append(unit_id)
                else:
                    stale += 1
                self._current = None
        except _ConnectionLost:
            reason = "disconnected"
        except FabricError:
            self._stop.set()
            raise
        finally:
            self._stop.set()
            transport = self._transport
            if transport is not None and reason in ("drained", "max-units"):
                try:
                    self._rpc(transport, {"type": "bye"})
                except TransportError:
                    pass
            if reason != "abandoned":
                self._drop_connection()
            if beat.is_alive():
                beat.join(timeout=1.0)
        return {
            "worker": self.config.name,
            "completed": completed,
            "failed": failed,
            "stale_uploads": stale,
            "reconnects": self.reconnects,
            "reason": reason,
        }


class WorkerThread(threading.Thread):
    """A :class:`RemoteWorker` on a thread (loopback fleets, tests, CLI)."""

    def __init__(self, config: WorkerConfig):
        super().__init__(name=f"fabric-{config.name}", daemon=True)
        self.worker = RemoteWorker(config)
        self.summary: Optional[Dict[str, object]] = None

    def run(self) -> None:
        try:
            self.summary = self.worker.run()
        except FabricError as exc:
            self.summary = {
                "worker": self.worker.config.name,
                "completed": [],
                "failed": [],
                "reason": f"fatal: {exc}",
            }


def launch_workers(
    address: Union[str, Tuple[str, int]],
    count: int,
    *,
    name_prefix: str = "rw",
    **overrides: Any,
) -> List[WorkerThread]:
    """Start ``count`` loopback worker threads against a coordinator."""
    if isinstance(address, str):
        address = parse_address(address)
    threads = []
    for index in range(1, count + 1):
        options = dict(overrides)
        base_seed = int(options.pop("seed", 0))
        config = WorkerConfig(
            connect=f"{address[0]}:{address[1]}",
            name=f"{name_prefix}{index}",
            seed=base_seed + index,  # de-synchronise the backoff jitter
            **options,
        )
        thread = WorkerThread(config)
        thread.start()
        threads.append(thread)
    return threads


# ----------------------------------------------------------------------
# Doctor probe
# ----------------------------------------------------------------------
def probe_coordinator(address: str, timeout: float = 5.0) -> Dict[str, object]:
    """Ping a coordinator: protocol, schema, and sweep fingerprint.

    Raises :class:`TransportError` when the peer is unreachable or not
    speaking the frame protocol; the caller (``repro doctor --remote``)
    turns both into structured diagnostics.
    """
    host, port = parse_address(address)
    transport = connect(host, port, timeout=timeout)
    try:
        transport.send({"type": "ping", "seq": 1})
        while True:
            reply = transport.recv()
            if reply.get("seq") == 1:
                break
        if reply.get("type") != "pong":
            raise TransportError(
                "closed", f"expected a pong, got {reply.get('type')!r}"
            )
        return {
            "protocol": reply.get("protocol"),
            "schema": reply.get("schema"),
            "fingerprint": reply.get("fingerprint"),
            "units": reply.get("units"),
        }
    finally:
        try:
            transport.send({"type": "bye", "seq": 2})
        except TransportError:
            pass
        transport.close()
