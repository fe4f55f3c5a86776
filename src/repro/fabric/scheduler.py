"""The fabric scheduler: fingerprinted work units in a durable lease queue.

A sweep — benchmarks x scales x seeds x unit kinds — expands into
:class:`UnitRecord`\\ s, each identified by a fingerprint of exactly the
knobs that determine its result.  The scheduler owns their lifecycle:

``pending -> leased -> done | failed | quarantined``

* **pending** — runnable (possibly not before a retry-backoff instant);
* **leased** — handed to one worker under a *time-bounded lease*; the
  lease carries a monotonically increasing **token**, and every
  completion, failure or heartbeat must present the current token.  A
  revoked lease's late messages are therefore rejected instead of
  double-completing the unit;
* **done** — the unit's payload is persisted (before the state flips, so
  ``done`` always implies the result exists);
* **failed** — retries exhausted, or a non-retryable failure (an
  overrun of the per-unit wall-clock budget included); failed units
  re-run on resume;
* **quarantined** — the unit crashed ``poison_threshold`` *distinct*
  workers.  Poison units are recorded with their tracebacks, reported,
  and never retried: the sweep degrades gracefully instead of crash-
  looping the pool.

Durability piggybacks on :mod:`repro.atomicio`: every state transition
rewrites the unit's JSON record atomically under ``<queue>/units/``, and
result payloads go through the checksummed
:class:`~repro.runner.store.ArtifactStore`.  A SIGKILL at any instant
leaves each record either before or after its transition, never torn —
resume revokes dead leases, re-verifies done payloads, quarantines
undecodable records, and re-runs exactly the units whose work was lost.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..atomicio import atomic_write_text, quarantine_file
from ..runner.errors import FatalError
from ..runner.retry import RetryPolicy, retry_rng
from ..runner.runner import UnitTask
from ..runner.store import ArtifactCorruptError, ArtifactStore

#: Queue states, in lifecycle order.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
STATES = (PENDING, LEASED, DONE, FAILED, QUARANTINED)

#: Terminal states: a unit in one of these is settled for this run.
TERMINAL_STATES = (DONE, FAILED, QUARANTINED)

QUEUE_MANIFEST = "queue.json"
UNITS_DIR = "units"
RESULTS_DIR = "results"
QUARANTINE_DIR = "quarantine"

SCHEMA_VERSION = 1
_FORMAT = "repro-fabric-queue"


class FabricError(FatalError):
    """The fabric itself (not a unit) failed: bad queue, bad config."""


class QueueMismatch(FabricError):
    """A queue directory was written by a different sweep configuration."""


def config_fingerprint(config: Dict[str, object]) -> str:
    """A short stable digest of a JSON-able configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def unit_fingerprint(task: UnitTask) -> str:
    """A stable digest of exactly the knobs that determine a unit's result."""
    summary: Dict[str, object] = {
        "kind": task.kind,
        "benchmark": task.benchmark,
        "scale": task.scale,
        "seed": task.seed,
        "window": task.window,
        "archs": list(task.archs),
        "min_weight": task.min_weight,
        "algorithms": list(task.algorithms) if task.algorithms is not None else None,
        "meld": task.meld,
        "profile_source": task.profile_source,
        "alpha_config": (
            dataclasses.asdict(task.alpha_config)
            if task.alpha_config is not None else None
        ),
    }
    return config_fingerprint(summary)


def unit_id_for(task: UnitTask) -> str:
    """The human-readable, collision-resistant id of one work unit."""
    return f"{task.kind}/{task.benchmark}/{unit_fingerprint(task)[:12]}"


@dataclass
class LeaseInfo:
    """One live lease: who holds the unit, until when, under which token."""

    worker: str
    token: int
    leased_at: float
    expires: float
    duration: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "token": self.token,
            "leased_at": self.leased_at,
            "expires": self.expires,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LeaseInfo":
        return cls(
            worker=str(data.get("worker", "?")),
            token=int(data.get("token", 0)),  # type: ignore[call-overload]
            leased_at=float(data.get("leased_at", 0.0)),  # type: ignore[arg-type]
            expires=float(data.get("expires", 0.0)),  # type: ignore[arg-type]
            duration=float(data.get("duration", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class UnitRecord:
    """One work unit's full queue-side lifecycle state."""

    unit_id: str
    benchmark: str
    kind: str
    state: str = PENDING
    #: Execution attempts charged so far (incremented at lease time).
    attempts: int = 0
    #: Next lease token to hand out (monotonic per unit).
    next_token: int = 0
    lease: Optional[LeaseInfo] = None
    #: Earliest instant the unit may be leased again (retry backoff).
    not_before: float = 0.0
    #: Cumulative retry-backoff wall-clock charged to this unit.
    backoff_total: float = 0.0
    #: Full lease/heartbeat/outcome audit trail (provenance).
    lease_history: List[Dict[str, object]] = field(default_factory=list)
    #: Distinct workers this unit's attempts have crashed.
    crash_workers: List[str] = field(default_factory=list)
    #: Tracebacks of the crashes (poison-unit evidence).
    tracebacks: List[str] = field(default_factory=list)
    failure: Optional[Dict[str, object]] = None
    #: Display metadata (scale, seed, ...) for doctor/reports.
    meta: Dict[str, object] = field(default_factory=dict)
    #: The executable task (in-memory only; reattached on resume).
    task: Optional[UnitTask] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "unit_id": self.unit_id,
            "benchmark": self.benchmark,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "next_token": self.next_token,
            "lease": self.lease.to_dict() if self.lease is not None else None,
            "not_before": self.not_before,
            "backoff_total": self.backoff_total,
            "lease_history": self.lease_history,
            "crash_workers": self.crash_workers,
            "tracebacks": self.tracebacks,
            "failure": self.failure,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "UnitRecord":
        state = data.get("state")
        if state not in STATES:
            raise ValueError(f"unknown unit state {state!r}")
        lease_data = data.get("lease")
        return cls(
            unit_id=str(data["unit_id"]),
            benchmark=str(data.get("benchmark", "?")),
            kind=str(data.get("kind", "experiment")),
            state=str(state),
            attempts=int(data.get("attempts", 0)),  # type: ignore[call-overload]
            next_token=int(data.get("next_token", 0)),  # type: ignore[call-overload]
            lease=(
                LeaseInfo.from_dict(lease_data)
                if isinstance(lease_data, dict)
                else None
            ),
            not_before=float(data.get("not_before", 0.0)),  # type: ignore[arg-type]
            backoff_total=float(data.get("backoff_total", 0.0)),  # type: ignore[arg-type]
            lease_history=list(data.get("lease_history", [])),  # type: ignore[arg-type]
            crash_workers=list(data.get("crash_workers", [])),  # type: ignore[arg-type]
            tracebacks=list(data.get("tracebacks", [])),  # type: ignore[arg-type]
            failure=(
                dict(data["failure"])  # type: ignore[arg-type]
                if isinstance(data.get("failure"), dict)
                else None
            ),
            meta=dict(data.get("meta", {})),  # type: ignore[arg-type]
        )


def record_for(task: UnitTask) -> UnitRecord:
    """Build the fresh pending record of one task."""
    return UnitRecord(
        unit_id=unit_id_for(task),
        benchmark=task.benchmark,
        kind=task.kind,
        meta={
            "scale": task.scale,
            "seed": task.seed,
            "window": task.window,
            "archs": list(task.archs),
        },
        task=task,
    )


def expand_units(tasks: Sequence[UnitTask]) -> List[UnitRecord]:
    """Expand a sweep's tasks into fingerprinted unit records.

    Duplicate fingerprints (the same work requested twice) collapse to
    one unit — running it twice could only disagree by a bug.
    """
    records: Dict[str, UnitRecord] = {}
    for task in tasks:
        record = record_for(task)
        records.setdefault(record.unit_id, record)
    return list(records.values())


def sweep_fingerprint(records: Sequence[UnitRecord]) -> str:
    """The whole sweep's identity: the sorted set of its unit ids."""
    return config_fingerprint({"units": sorted(r.unit_id for r in records)})


# ----------------------------------------------------------------------
# The lease state machine
# ----------------------------------------------------------------------
class JobQueue:
    """The lease state machine over an ordered set of unit records.

    Pure in-memory semantics plus an optional durable root: when
    ``root`` is set, every state transition atomically rewrites the
    affected unit's JSON record, so the on-disk queue is a prefix- or
    suffix-consistent snapshot at every instant (heartbeat renewals are
    deliberately not persisted — a resumed queue revokes all leases
    anyway, so persisting them would buy nothing but fsync traffic).
    """

    def __init__(
        self,
        records: Sequence[UnitRecord],
        root: Optional[Path] = None,
        poison_threshold: int = 2,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.records: Dict[str, UnitRecord] = {r.unit_id: r for r in records}
        self.order: List[str] = [r.unit_id for r in records]
        self.root = root
        self.poison_threshold = poison_threshold
        self.retry = retry if retry is not None else RetryPolicy()
        self.seed = seed
        #: Time source for every lease decision.  Deliberately monotonic:
        #: a wall-clock (``time.time``) jump on a remote host — NTP step,
        #: suspend/resume — must never mass-expire healthy leases.  Tests
        #: inject a fake clock here instead of sleeping.
        self.clock: Callable[[], float] = clock if clock is not None else time.monotonic

    # -- persistence ---------------------------------------------------
    def unit_path(self, unit_id: str) -> Optional[Path]:
        if self.root is None:
            return None
        safe = unit_id.replace("/", "_")
        return self.root / UNITS_DIR / f"{safe}.json"

    def persist(self, record: UnitRecord) -> None:
        path = self.unit_path(record.unit_id)
        if path is None:
            return
        atomic_write_text(path, json.dumps(record.to_dict(), indent=2, sort_keys=True))

    def persist_all(self) -> None:
        for record in self.records.values():
            self.persist(record)

    # -- queries -------------------------------------------------------
    def __getitem__(self, unit_id: str) -> UnitRecord:
        return self.records[unit_id]

    def in_state(self, state: str) -> List[UnitRecord]:
        return [self.records[uid] for uid in self.order
                if self.records[uid].state == state]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        for record in self.records.values():
            out[record.state] += 1
        return out

    def settled(self) -> bool:
        """True when no unit is runnable or running any more."""
        return all(r.state in TERMINAL_STATES for r in self.records.values())

    def next_ready_delay(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest backoff-delayed pending unit is due."""
        if now is None:
            now = self.clock()
        waits = [
            r.not_before - now
            for r in self.records.values()
            if r.state == PENDING and r.not_before > now
        ]
        return min(waits) if waits else None

    # -- transitions ---------------------------------------------------
    def _event(
        self, record: UnitRecord, action: str, now: float,
        worker: Optional[str] = None, detail: str = "",
    ) -> None:
        event: Dict[str, object] = {
            "action": action, "at": now, "attempt": record.attempts,
        }
        if worker is not None:
            event["worker"] = worker
        if detail:
            event["detail"] = detail
        record.lease_history.append(event)

    def lease(
        self, worker: str, now: float, duration: float
    ) -> Optional[Tuple[UnitRecord, int]]:
        """Hand the first runnable unit to ``worker`` under a fresh token."""
        for unit_id in self.order:
            record = self.records[unit_id]
            if record.state != PENDING or record.not_before > now:
                continue
            token = record.next_token
            record.next_token += 1
            record.attempts += 1
            record.state = LEASED
            record.lease = LeaseInfo(
                worker=worker, token=token, leased_at=now,
                expires=now + duration, duration=duration,
            )
            self._event(record, "lease", now, worker=worker)
            self.persist(record)
            return record, token
        return None

    def _current(self, unit_id: str, token: int) -> Optional[UnitRecord]:
        """The record iff it is leased under exactly this token."""
        record = self.records.get(unit_id)
        if record is None or record.state != LEASED or record.lease is None:
            return None
        if record.lease.token != token:
            return None
        return record

    def holds(self, unit_id: str, token: int) -> bool:
        """Whether ``token`` is still the unit's current lease."""
        return self._current(unit_id, token) is not None

    def heartbeat(self, unit_id: str, token: int, now: float) -> bool:
        """Renew the lease; False (ignored) when the lease is no longer current."""
        record = self._current(unit_id, token)
        if record is None or record.lease is None:
            return False
        record.lease.expires = now + record.lease.duration
        return True

    def complete(self, unit_id: str, token: int, now: float) -> bool:
        """Settle a unit as done; False rejects a stale lease's late result."""
        record = self._current(unit_id, token)
        if record is None:
            return False
        worker = record.lease.worker if record.lease is not None else None
        record.state = DONE
        record.lease = None
        record.failure = None
        self._event(record, "complete", now, worker=worker)
        self.persist(record)
        return True

    def _schedule_retry(self, record: UnitRecord, now: float) -> str:
        """Re-pend with jittered backoff, or fail when budgets are spent."""
        rng = retry_rng(self.seed, f"{record.unit_id}:{record.attempts}")
        delay = self.retry.delay(record.attempts, rng)
        if not self.retry.within_budget(record.backoff_total, delay):
            record.state = FAILED
            budget_note = (
                f"retry wall-clock budget ({self.retry.max_total_delay:g}s) "
                f"exhausted after {record.attempts} attempt(s)"
            )
            if record.failure is None:
                record.failure = {"kind": "retry-budget", "message": budget_note}
            else:
                record.failure["budget"] = budget_note
            record.lease = None
            self.persist(record)
            return FAILED
        record.state = PENDING
        record.lease = None
        record.not_before = now + delay
        record.backoff_total += delay
        self.persist(record)
        return PENDING

    def fail(
        self,
        unit_id: str,
        token: int,
        failure: Dict[str, object],
        retryable: bool,
        now: float,
    ) -> str:
        """Settle a failed attempt: retry, final failure, or stale rejection."""
        record = self._current(unit_id, token)
        if record is None:
            return "rejected"
        worker = record.lease.worker if record.lease is not None else None
        record.failure = dict(failure)
        self._event(
            record, "fail", now, worker=worker,
            detail=str(failure.get("kind", "error")),
        )
        if retryable and record.attempts < self.retry.max_attempts:
            return self._schedule_retry(record, now)
        record.state = FAILED
        record.lease = None
        self.persist(record)
        return FAILED

    def crash(
        self,
        unit_id: str,
        token: int,
        worker: str,
        traceback_text: str,
        now: float,
    ) -> str:
        """Record that ``worker`` died (or was killed) holding this unit.

        Every crash is charged to the unit's distinct-crash-worker set —
        even one whose lease was already revoked, because the evidence
        of a unit that kills workers matters regardless of lease
        bookkeeping.  A unit that has crashed ``poison_threshold``
        distinct workers is quarantined as poison: recorded with its
        tracebacks, reported, never retried.
        """
        record = self.records.get(unit_id)
        if record is None:
            return "rejected"
        if worker not in record.crash_workers:
            record.crash_workers.append(worker)
        if traceback_text:
            record.tracebacks.append(traceback_text)
        current = self._current(unit_id, token)
        if len(set(record.crash_workers)) >= self.poison_threshold:
            if record.state != DONE:
                record.state = QUARANTINED
                record.lease = None
                if record.failure is None:
                    record.failure = {
                        "kind": "poison",
                        "message": (
                            f"unit crashed {len(set(record.crash_workers))} "
                            f"distinct worker(s): "
                            f"{', '.join(sorted(set(record.crash_workers)))}"
                        ),
                    }
                self._event(record, "quarantine", now, worker=worker)
                self.persist(record)
                return QUARANTINED
            self.persist(record)
            return "rejected"
        if current is None:
            self.persist(record)
            return "rejected"
        self._event(record, "crash", now, worker=worker)
        if record.attempts < self.retry.max_attempts:
            return self._schedule_retry(record, now)
        record.state = FAILED
        record.lease = None
        if record.failure is None:
            record.failure = {
                "kind": "crash",
                "message": f"worker {worker} died while the unit was in flight",
            }
        self.persist(record)
        return FAILED

    def revoke(
        self, unit_id: str, now: float, detail: str = "", refund: bool = False
    ) -> bool:
        """Take a leased unit back to pending (lease expiry / drain).

        ``refund`` says the lease never reached a worker (a failed
        hand-off): the attempt it was charged is given back, so the next
        lease runs as the same attempt.
        """
        record = self.records.get(unit_id)
        if record is None or record.state != LEASED:
            return False
        worker = record.lease.worker if record.lease is not None else None
        record.state = PENDING
        record.lease = None
        self._event(record, "expire", now, worker=worker, detail=detail)
        if refund:
            record.attempts -= 1
        self.persist(record)
        return True

    def expire(self, now: Optional[float] = None) -> List[Tuple[str, str]]:
        """Revoke every lease past its expiry; returns (unit, worker) pairs."""
        if now is None:
            now = self.clock()
        revoked: List[Tuple[str, str]] = []
        for unit_id in self.order:
            record = self.records[unit_id]
            if record.state != LEASED or record.lease is None:
                continue
            if record.lease.expires <= now:
                holder = record.lease.worker
                self.revoke(unit_id, now, detail="lease expired")
                revoked.append((unit_id, holder))
        return revoked

    def force_expire(self, unit_id: str, now: float) -> Optional[str]:
        """Revoke one lease immediately (the ``expire-lease`` fault)."""
        record = self.records.get(unit_id)
        if record is None or record.state != LEASED or record.lease is None:
            return None
        holder = record.lease.worker
        self.revoke(unit_id, now, detail="lease force-expired")
        return holder

    # -- consistency (exercised by the property tests) ------------------
    def check_consistency(self) -> List[str]:
        """Invariant violations, empty when the queue is consistent."""
        problems: List[str] = []
        if sorted(self.records) != sorted(self.order):
            problems.append("order and records disagree on the unit set")
        for unit_id, record in self.records.items():
            if record.state not in STATES:
                problems.append(f"{unit_id}: unknown state {record.state!r}")
            if (record.state == LEASED) != (record.lease is not None):
                problems.append(f"{unit_id}: lease does not match state")
            completions = sum(
                1 for e in record.lease_history if e.get("action") == "complete"
            )
            if completions > 1:
                problems.append(f"{unit_id}: completed {completions} times")
            if completions == 1 and record.state != DONE:
                problems.append(
                    f"{unit_id}: completed but in state {record.state}"
                )
        return problems


# ----------------------------------------------------------------------
# Durable queue directories
# ----------------------------------------------------------------------
def _read_header(root: Path) -> Dict[str, object]:
    path = root / QUEUE_MANIFEST
    if not path.exists():
        raise FabricError(f"{root}: not a fabric queue (no {QUEUE_MANIFEST})")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FabricError(f"{root}: unreadable queue manifest: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        raise FabricError(f"{root}: not a fabric queue manifest")
    if data.get("schema") != SCHEMA_VERSION:
        raise FabricError(
            f"{root}: unsupported queue schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def _write_header(root: Path, fingerprint: str, config: Dict[str, object]) -> None:
    atomic_write_text(
        root / QUEUE_MANIFEST,
        json.dumps(
            {
                "format": _FORMAT,
                "schema": SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "config": config,
            },
            indent=2,
            sort_keys=True,
        ),
    )


def load_queue_dir(
    root: Union[str, Path],
) -> Tuple[Dict[str, object], Dict[str, UnitRecord], List[Path]]:
    """Read a queue directory: header, decodable records, corrupt files.

    Corrupt record files are *returned*, not raised: doctor reports
    them, and resume quarantines them and re-runs the affected units —
    a damaged queue loses at most the damaged units' progress, never
    the sweep.
    """
    root = Path(root)
    header = _read_header(root)
    records: Dict[str, UnitRecord] = {}
    corrupt: List[Path] = []
    units_dir = root / UNITS_DIR
    if units_dir.is_dir():
        for path in sorted(units_dir.glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                record = UnitRecord.from_dict(data)
            except (json.JSONDecodeError, UnicodeDecodeError, ValueError,
                    KeyError, TypeError):
                corrupt.append(path)
                continue
            records[record.unit_id] = record
    return header, records, corrupt


def repair_queue_dir(root: Union[str, Path]) -> Dict[str, List[str]]:
    """Doctor's ``--repair``: release stuck leases, quarantine bad records.

    A lease found in a queue directory with no live supervisor is stuck
    — its holder is gone (the expiry instants are process-local
    monotonic clocks, so they cannot even be compared across runs).
    Repair moves every leased unit back to pending and quarantines
    undecodable record files, exactly what resume would do, but without
    needing the sweep's task list.
    """
    root = Path(root)
    _header, records, corrupt = load_queue_dir(root)
    revoked: List[str] = []
    for record in records.values():
        if record.state != LEASED:
            continue
        record.state = PENDING
        record.lease = None
        record.not_before = 0.0
        record.lease_history.append(
            {"action": "expire", "at": 0.0, "attempt": record.attempts,
             "detail": "lease released by doctor --repair"}
        )
        safe = record.unit_id.replace("/", "_")
        atomic_write_text(
            root / UNITS_DIR / f"{safe}.json",
            json.dumps(record.to_dict(), indent=2, sort_keys=True),
        )
        revoked.append(record.unit_id)
    quarantined: List[str] = []
    for path in corrupt:
        quarantine_file(path, root / QUARANTINE_DIR)
        quarantined.append(path.name)
    return {"revoked": revoked, "quarantined": quarantined}


class Scheduler:
    """Sweep expansion + durable queue + result custody, in one object.

    ``root=None`` runs fully in memory (tests, one-shot library runs);
    with a root the queue survives SIGKILL and ``resume=True`` picks a
    sweep back up: done units keep their verified payloads, dead leases
    are revoked, corrupt records are quarantined and their units re-run,
    failed units re-run, quarantined (poison) units stay quarantined.
    """

    def __init__(
        self,
        tasks: Sequence[UnitTask],
        root: Optional[Union[str, Path]] = None,
        resume: bool = False,
        poison_threshold: int = 2,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not tasks:
            raise FabricError("a sweep needs at least one unit")
        fresh = expand_units(tasks)
        self.fingerprint = sweep_fingerprint(fresh)
        self.root = Path(root) if root is not None else None
        self.resumed: List[str] = []
        self.recovered: List[str] = []
        self._payloads: Dict[str, Dict[str, object]] = {}
        self.store: Optional[ArtifactStore] = None

        records = fresh
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / UNITS_DIR).mkdir(parents=True, exist_ok=True)
            self.store = ArtifactStore(self.root / RESULTS_DIR)
            existing = (self.root / QUEUE_MANIFEST).exists()
            if resume and existing:
                records = self._reconcile(fresh)
            else:
                config = {
                    "units": [r.unit_id for r in fresh],
                    "benchmarks": sorted({r.benchmark for r in fresh}),
                }
                _write_header(self.root, self.fingerprint, config)

        self.queue = JobQueue(
            records,
            root=self.root,
            poison_threshold=poison_threshold,
            retry=retry,
            seed=seed,
            clock=clock,
        )
        if self.root is not None:
            self.queue.persist_all()

    # -- resume --------------------------------------------------------
    def _reconcile(self, fresh: Sequence[UnitRecord]) -> List[UnitRecord]:
        assert self.root is not None and self.store is not None
        header, loaded, corrupt = load_queue_dir(self.root)
        if header.get("fingerprint") != self.fingerprint:
            raise QueueMismatch(
                f"{self.root}: queue was written by a different run "
                f"configuration (fingerprint {header.get('fingerprint')!r}, "
                f"this run {self.fingerprint!r}); refusing to resume"
            )
        for path in corrupt:
            quarantine_file(path, self.root / QUARANTINE_DIR)
            self.recovered.append(path.stem)

        merged: List[UnitRecord] = []
        for record in fresh:
            old = loaded.get(record.unit_id)
            if old is None:
                merged.append(record)
                continue
            old.task = record.task
            if old.state == DONE:
                try:
                    self.store.verify(self.result_key(old.unit_id))
                    self.resumed.append(old.unit_id)
                except ArtifactCorruptError:
                    self.store.quarantine(self.result_key(old.unit_id))
                    old.state = PENDING
                    old.failure = None
                    self.recovered.append(old.unit_id)
            elif old.state == LEASED:
                # The previous process died holding this lease.
                old.state = PENDING
                old.lease = None
                old.lease_history.append(
                    {"action": "expire", "at": 0.0, "attempt": old.attempts,
                     "detail": "revoked on resume (previous run died)"}
                )
                old.not_before = 0.0
            elif old.state == FAILED:
                # Failed units re-run on resume.
                old.state = PENDING
                old.not_before = 0.0
            merged.append(old)
        return merged

    # -- payload custody -----------------------------------------------
    def result_key(self, unit_id: str) -> str:
        return f"fabric/{unit_id}"

    def put_payload(self, unit_id: str, payload: Dict[str, object]) -> None:
        """Persist a unit's result *before* its record flips to done."""
        if self.store is not None:
            self.store.put(self.result_key(unit_id), payload)
        self._payloads[unit_id] = payload

    def get_payload(self, unit_id: str) -> Optional[Dict[str, object]]:
        if unit_id in self._payloads:
            return self._payloads[unit_id]
        if self.store is not None:
            key = self.result_key(unit_id)
            if key in self.store:
                try:
                    loaded = self.store.load(key)
                except ArtifactCorruptError:
                    return None
                if isinstance(loaded, dict):
                    self._payloads[unit_id] = loaded
                    return loaded
        return None

    # -- conveniences --------------------------------------------------
    @property
    def order(self) -> List[str]:
        return self.queue.order

    def record(self, unit_id: str) -> UnitRecord:
        return self.queue[unit_id]

    def counts(self) -> Dict[str, int]:
        return self.queue.counts()

    def settled(self) -> bool:
        return self.queue.settled()
