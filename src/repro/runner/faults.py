"""Deterministic fault injection for the resilient runner.

The runner's robustness claims — isolation, retry, checkpoint/resume,
corrupted-input rejection — are only credible if they can be *demonstrated*.
This module injects failures at named pipeline stages of named benchmarks,
fully seeded so every injected failure reproduces exactly:

* ``crash`` — raise an unannounced ``RuntimeError`` (a bug in the unit);
* ``hard-crash`` — kill the worker process outright (``os._exit``),
  modelling a segfault/OOM kill;
* ``hang`` — sleep past any reasonable deadline, modelling a livelock;
* ``transient`` — raise :class:`TransientError`, which heals after the
  spec's ``times`` failed attempts (exercises retry);
* ``corrupt-profile`` — mutate the collected edge profile so it violates
  flow conservation and CFG consistency (exercises validation);
* ``flip-sense`` (stage ``layout``) — flip the hottest conditional's
  taken target in an aligned layout, modelling a rewriter that inverted
  a branch without preserving semantics (the oracle must catch it);
* ``mutate-layout`` (stage ``layout``) — retarget the hottest inserted
  jump or unconditional branch at the wrong block, modelling a broken
  relocation (the oracle must catch it);
* ``break-cfg`` (stage ``lint``) — corrupt the CFG itself after
  profiling: retarget the hottest edge of the hottest procedure at a
  non-existent block, or duplicate the hottest block in the layout
  order, modelling a broken CFG builder (``repro lint`` must catch it);
* ``corrupt-artifact`` (stage ``store``) — garble a persisted result
  file after it was written, modelling bit rot / torn writes (the
  artifact store's checksums must catch it);
* ``corrupt-trace`` (stage ``trace``) — garble a cached decision trace
  after it was written, modelling bit rot in the trace cache (the
  runner must quarantine it and transparently re-capture — a corrupt
  cache may cost time, never correctness).

Stage ``fabric`` holds the faults that attack the experiment *fabric*
around the unit instead of the unit itself (see :mod:`repro.fabric`):
``kill-worker`` (the worker holding the lease dies mid-unit),
``stall-worker`` (the worker freezes and stops heartbeating),
``expire-lease`` (a healthy worker's lease is revoked under it),
``corrupt-queue`` (the unit's durable queue record is garbled on disk)
and ``poison-unit`` (the unit crashes every worker it is assigned to —
the scheduler must quarantine it, not die with it).

A plan is a picklable value, so it travels into worker subprocesses
unchanged, and the CLI accepts specs as ``benchmark:stage:kind[:times]``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..cfg import TerminatorKind
from ..isa.encoder import link
from ..isa.layout import ProcedureLayout, ProgramLayout
from ..profiling.edge_profile import EdgeProfile
from .errors import FatalError, TransientError, annotate_stage

#: Stage names at which faults can fire, in pipeline order.  ``trace``
#: fires between generation and profiling (the decision-trace capture);
#: ``lint`` fires between profiling and alignment; ``layout`` fires
#: between alignment and the oracle; ``store`` fires after a unit's
#: artifact is persisted.  ``fabric`` is not a pipeline stage at all:
#: its faults attack the experiment fabric *around* the unit — the
#: worker process, the lease, the queue — and are applied by
#: :mod:`repro.fabric`, never by :meth:`FaultInjector.fire`.
STAGES = (
    "generate", "trace", "profile", "lint", "align", "simulate", "layout",
    "store", "fabric",
)
KINDS = (
    "crash",
    "hard-crash",
    "hang",
    "transient",
    "corrupt-profile",
    "break-cfg",
    "flip-sense",
    "mutate-layout",
    "corrupt-artifact",
    "corrupt-trace",
    "kill-worker",
    "stall-worker",
    "expire-lease",
    "corrupt-queue",
    "poison-unit",
    "drop-message",
    "delay-message",
    "duplicate-message",
    "partition-worker",
    "corrupt-frame",
)

#: Kinds that corrupt data in-flight instead of raising at a stage
#: boundary; :meth:`FaultInjector.fire` ignores them.
DATA_FAULT_KINDS = (
    "corrupt-profile",
    "break-cfg",
    "flip-sense",
    "mutate-layout",
    "corrupt-artifact",
    "corrupt-trace",
)

#: Fabric-level kinds (stage ``fabric``): they attack the scheduler /
#: worker-pool machinery rather than the unit's own pipeline, and are
#: observable only under ``repro sweep`` (the fabric).  ``kill-worker``
#: kills the worker process holding the lease mid-unit; ``stall-worker``
#: freezes the worker (heartbeats stop, the supervisor must kill it);
#: ``expire-lease`` revokes a healthy worker's lease (its late result
#: must be rejected, not double-counted); ``corrupt-queue`` garbles the
#: unit's durable queue record on disk; ``poison-unit`` makes the unit
#: crash *every* worker it touches, so the scheduler must quarantine it.
#: The ``*-message`` / ``partition-worker`` / ``corrupt-frame`` kinds are
#: the *network* faults of the socket tier (PR 7): they attack the wire
#: between a remote worker and the coordinator and are injected by
#: ``repro.fabric.transport.FaultyTransport``.  Network faults ignore the
#: spec's benchmark field — the wire does not know which unit a frame
#: serves.
NETWORK_FAULT_KINDS = (
    "drop-message",
    "delay-message",
    "duplicate-message",
    "partition-worker",
    "corrupt-frame",
)

FABRIC_FAULT_KINDS = (
    "kill-worker",
    "stall-worker",
    "expire-lease",
    "corrupt-queue",
    "poison-unit",
) + NETWORK_FAULT_KINDS

#: Exit status used by ``hard-crash`` so tests can recognise it.
HARD_CRASH_EXIT = 23

#: Exit statuses of the injected fabric worker deaths.
FABRIC_KILL_EXIT = 24
FABRIC_POISON_EXIT = 25


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where it fires, what it does, how often."""

    benchmark: str  # benchmark name, or "*" for every benchmark
    stage: str
    kind: str
    #: Number of attempts that fail before the fault heals.
    times: int = 1
    #: Sleep duration of a ``hang`` fault (killed by the runner timeout).
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown fault stage {self.stage!r}; pick from {STAGES}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; pick from {KINDS}")
        if (self.kind in FABRIC_FAULT_KINDS) != (self.stage == "fabric"):
            raise ValueError(
                f"fault kind {self.kind!r} belongs to stage "
                f"{'fabric' if self.kind in FABRIC_FAULT_KINDS else 'a pipeline stage'}, "
                f"not {self.stage!r}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches(self, stage: str, benchmark: str) -> bool:
        """Whether this fault applies to ``benchmark`` at ``stage``."""
        return self.stage == stage and self.benchmark in ("*", benchmark)


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs plus the seed making injections reproducible."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI fault spec ``benchmark:stage:kind[:times]``."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"bad fault spec {text!r}; expected benchmark:stage:kind[:times]"
        )
    times = 1
    if len(parts) == 4:
        try:
            times = int(parts[3])
        except ValueError:
            raise ValueError(f"bad fault repeat count in {text!r}")
    return FaultSpec(benchmark=parts[0], stage=parts[1], kind=parts[2], times=times)


class FaultInjector:
    """Applies a :class:`FaultPlan` at stage boundaries of one unit run."""

    def __init__(self, plan: Optional[FaultPlan]):
        self.plan = plan or FaultPlan()

    def _active(self, stage: str, benchmark: str, attempt: int) -> Optional[FaultSpec]:
        for spec in self.plan.specs:
            if spec.matches(stage, benchmark) and attempt <= spec.times:
                return spec
        return None

    def fire(self, stage: str, benchmark: str, attempt: int) -> None:
        """Raise/kill/hang if a fault is scheduled for this stage."""
        spec = self._active(stage, benchmark, attempt)
        if spec is None or spec.kind in DATA_FAULT_KINDS or spec.kind in FABRIC_FAULT_KINDS:
            return
        if spec.kind == "transient":
            raise annotate_stage(
                TransientError(
                    f"injected transient fault at {stage} "
                    f"(attempt {attempt}/{spec.times})"
                ),
                stage,
            )
        if spec.kind == "crash":
            raise annotate_stage(
                RuntimeError(f"injected crash at {stage} of {benchmark}"), stage
            )
        if spec.kind == "hard-crash":
            os._exit(HARD_CRASH_EXIT)
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)

    def corrupt_profile(
        self, benchmark: str, attempt: int, profile: EdgeProfile
    ) -> EdgeProfile:
        """Apply any scheduled ``corrupt-profile`` fault to ``profile``.

        The corruption both invents an edge between non-existent blocks
        (breaking profile/CFG consistency) and inflates one real edge
        (breaking flow conservation), deterministically per seed.
        """
        spec = self._active("profile", benchmark, attempt)
        if spec is None or spec.kind != "corrupt-profile":
            return profile
        rng = random.Random(f"repro-fault:{self.plan.seed}:{benchmark}:profile")
        procedures = sorted(profile.procedures())
        if not procedures:
            profile.set_weight("__corrupt__", 10**6, 10**6 + 1, 42)
            return profile
        victim = procedures[rng.randrange(len(procedures))]
        # Draw the inflated edge before inventing the phantom one, and
        # never a self-loop: inflating either leaves flow conserved.
        edges = [(src, dst) for src, dst in sorted(profile.proc_edges(victim)) if src != dst]
        profile.set_weight(victim, 10**6, 10**6 + 1, 42)
        if edges:
            src, dst = edges[rng.randrange(len(edges))]
            profile.set_weight(
                victim, src, dst, profile.weight(victim, src, dst) + 1_000_001
            )
        return profile

    def break_cfg(self, benchmark: str, attempt: int, program, profile: EdgeProfile):
        """Apply any scheduled ``break-cfg`` fault to ``program``.

        Two deterministic corruption modes, chosen per seed, both landing
        in the hottest procedure so the defect is never hiding in cold
        code: retarget its hottest edge at a block that does not exist
        (an unresolved branch target), or duplicate its hottest block in
        the layout order.  The corrupted :class:`~repro.cfg.Procedure` is
        assembled behind ``__init__``'s back — a real CFG-builder bug
        would not call ``validate()`` on your behalf either.  Returns
        ``program`` unchanged when no such fault is scheduled.
        """
        spec = self._active("lint", benchmark, attempt)
        if spec is None or spec.kind != "break-cfg":
            return program
        rng = random.Random(f"repro-fault:{self.plan.seed}:{benchmark}:lint")
        victim = max(
            program.order,
            key=lambda name: (profile.total_weight(name), name),
        )
        proc = program.procedures[victim]
        if rng.random() < 0.5:
            mutated = _dangling_edge(proc, profile)
        else:
            mutated = _duplicate_block(proc, profile)
        if mutated is None:
            raise annotate_stage(
                FatalError(
                    f"injected break-cfg fault found no hot victim "
                    f"in {benchmark} procedure {victim!r}"
                ),
                "lint",
            )
        return _unchecked_program(program, {victim: mutated})

    def mutate_layout(
        self,
        benchmark: str,
        attempt: int,
        label: str,
        layout: ProgramLayout,
        profile: EdgeProfile,
    ) -> ProgramLayout:
        """Apply any scheduled ``flip-sense``/``mutate-layout`` fault.

        The victim is chosen by profile weight (hottest first) so the
        corruption is guaranteed to execute — an injected rewriter bug
        the oracle *must* observe, not one hiding in cold code.  Returns
        ``layout`` unchanged when no layout fault is scheduled.
        """
        spec = self._active("layout", benchmark, attempt)
        if spec is None or spec.kind not in ("flip-sense", "mutate-layout"):
            return layout
        rng = random.Random(
            f"repro-fault:{self.plan.seed}:{benchmark}:{label}:{spec.kind}"
        )
        if spec.kind == "flip-sense":
            mutated = _flip_sense(layout, profile)
        else:
            mutated = _retarget_transfer(layout, profile, rng)
        if mutated is None:
            raise annotate_stage(
                FatalError(
                    f"injected {spec.kind} fault found no hot victim "
                    f"in {benchmark} layout {label!r}"
                ),
                "layout",
            )
        return mutated

    def corrupt_artifact(
        self, benchmark: str, attempt: int, path: Union[str, Path]
    ) -> bool:
        """Apply any scheduled ``corrupt-artifact`` fault to a stored file.

        Truncates the artifact to half its length and appends garbage —
        a torn write plus bit rot — *after* the store registered its
        checksum, so the next read must fail integrity verification.
        Returns whether the fault fired.
        """
        spec = self._active("store", benchmark, attempt)
        if spec is None or spec.kind != "corrupt-artifact":
            return False
        path = Path(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00<injected-corruption>")
        return True

    def fabric_fault(
        self, benchmark: str, attempt: int, kinds: Sequence[str]
    ) -> Optional[FaultSpec]:
        """The scheduled fabric-level fault of one of ``kinds``, if any.

        ``poison-unit`` ignores the spec's ``times``: poison is defined
        as a unit that crashes *every* worker on *every* attempt, so it
        never heals — the scheduler's quarantine, not the fault's decay,
        must end it.
        """
        for spec in self.plan.specs:
            if spec.stage != "fabric" or spec.kind not in kinds:
                continue
            if spec.benchmark not in ("*", benchmark):
                continue
            if spec.kind == "poison-unit" or attempt <= spec.times:
                return spec
        return None

    def corrupt_queue_record(self, path: Union[str, Path]) -> bool:
        """Garble a durable queue record file (``corrupt-queue`` damage).

        Same torn-write-plus-bit-rot damage as ``corrupt_artifact``, but
        aimed at the fabric's per-unit queue record: the next queue load
        must quarantine the damaged record and recover the unit as
        pending instead of crashing or losing it.  The caller decides
        *when* it fires (the fabric applies it once per matching spec);
        returns whether the file existed to be damaged.
        """
        path = Path(path)
        if not path.exists():
            return False
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00<injected-corruption>")
        return True

    def corrupt_trace(
        self, benchmark: str, attempt: int, path: Union[str, Path]
    ) -> bool:
        """Apply any scheduled ``corrupt-trace`` fault to a cached trace.

        Same torn-write-plus-bit-rot damage as ``corrupt-artifact``, but
        aimed at the decision-trace cache *after* the trace was
        persisted: the runner's next load must fail integrity checking,
        quarantine the entry and re-capture transparently.  Returns
        whether the fault fired.
        """
        spec = self._active("trace", benchmark, attempt)
        if spec is None or spec.kind != "corrupt-trace":
            return False
        path = Path(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00<injected-corruption>")
        return True


def _unchecked_procedure(name, order, blocks, edges):
    """Assemble a Procedure *without* its constructor validation.

    ``_out``/``_in`` adjacency is kept consistent with the corrupted edge
    list (dangling endpoints included) so graph walks still work — the
    verifier passes, not a ``KeyError``, must be what flags the damage.
    """
    from ..cfg.procedure import Procedure

    proc = Procedure.__new__(Procedure)
    proc.name = name
    proc._order = list(order)
    proc.blocks = dict(blocks)
    proc.edges = list(edges)
    proc._out = {bid: [] for bid in proc.blocks}
    proc._in = {bid: [] for bid in proc.blocks}
    for edge in proc.edges:
        proc._out.setdefault(edge.src, []).append(edge)
        proc._in.setdefault(edge.dst, []).append(edge)
    return proc


def _unchecked_program(program, replacements):
    """Copy a Program, swapping in corrupted procedures, skipping checks."""
    from ..cfg.program import Program

    mutated = Program.__new__(Program)
    mutated.procedures = {
        name: replacements.get(name, proc)
        for name, proc in program.procedures.items()
    }
    mutated._order = list(program.order)
    mutated.entry = program.entry
    return mutated


def _hottest_edge(proc, profile: EdgeProfile):
    """The procedure's heaviest profiled edge, or None when all cold."""
    best = None
    for edge in proc.edges:
        weight = profile.weight(proc.name, edge.src, edge.dst)
        if weight and (best is None or weight > best[0]):
            best = (weight, edge)
    return None if best is None else best[1]


def _dangling_edge(proc, profile: EdgeProfile):
    """Retarget the hottest edge at a block id that does not exist."""
    victim = _hottest_edge(proc, profile)
    if victim is None:
        return None
    bogus = max(proc.blocks) + 1000
    edges = [
        replace(e, dst=bogus) if e is victim else e for e in proc.edges
    ]
    return _unchecked_procedure(proc.name, proc.original_order, proc.blocks, edges)


def _duplicate_block(proc, profile: EdgeProfile):
    """Append the hottest block's id to the layout order a second time."""
    victim = _hottest_edge(proc, profile)
    if victim is None:
        return None
    order = list(proc.original_order) + [victim.src]
    return _unchecked_procedure(proc.name, order, proc.blocks, proc.edges)


def _unchecked_layout(procedure, placements) -> ProcedureLayout:
    """Assemble a ProcedureLayout *without* its structural self-check.

    ``ProcedureLayout.__init__`` validates its own consistency, so a
    corrupted layout must be built behind its back — exactly like a real
    rewriter bug would manifest: internally plausible, semantically wrong.
    """
    layout = ProcedureLayout.__new__(ProcedureLayout)
    layout.procedure = procedure
    layout.placements = list(placements)
    layout.position = {p.bid: i for i, p in enumerate(placements)}
    return layout


def _swap_placement(layout: ProgramLayout, name: str, victim, mutated_placement):
    proc_layout = layout.layouts[name]
    placements = [
        mutated_placement if p is victim else p for p in proc_layout.placements
    ]
    layouts = dict(layout.layouts)
    layouts[name] = _unchecked_layout(proc_layout.procedure, placements)
    return ProgramLayout(layout.program, layouts)


def _flip_sense(
    layout: ProgramLayout, profile: EdgeProfile
) -> Optional[ProgramLayout]:
    """Flip the hottest conditional's taken target to its other successor."""
    best = None
    for name, proc_layout in layout.layouts.items():
        proc = proc_layout.procedure
        for placement in proc_layout.placements:
            if proc.block(placement.bid).kind is not TerminatorKind.COND:
                continue
            others = [
                e.dst
                for e in proc.out_edges(placement.bid)
                if e.dst != placement.taken_target
            ]
            if not others:
                continue
            weight = sum(
                profile.weight(name, placement.bid, e.dst)
                for e in proc.out_edges(placement.bid)
            )
            if weight and (best is None or weight > best[0]):
                best = (weight, name, placement, others[0])
    if best is None:
        return None
    _, name, victim, other = best
    return _swap_placement(layout, name, victim, replace(victim, taken_target=other))


def _retarget_transfer(
    layout: ProgramLayout, profile: EdgeProfile, rng: random.Random
) -> Optional[ProgramLayout]:
    """Point the hottest inserted jump (or unconditional) at a wrong block.

    A wrong block can be a zero-size block starting where the right one
    starts, so the mutated layout links to the same image; such a draw is
    vacuous and is made again without that block.
    """
    best = None
    for name, proc_layout in layout.layouts.items():
        proc = proc_layout.procedure
        bids = sorted(proc.blocks)
        for placement in proc_layout.placements:
            if placement.jump_target is not None:
                weight = profile.weight(name, placement.bid, placement.jump_target)
                wrong = [b for b in bids if b != placement.jump_target]
                if weight and wrong and (best is None or weight > best[0]):
                    best = (weight, name, placement, "jump_target", wrong)
    if best is None:
        # No hot inserted jump anywhere: retarget a hot unconditional.
        for name, proc_layout in layout.layouts.items():
            proc = proc_layout.procedure
            bids = sorted(proc.blocks)
            for placement in proc_layout.placements:
                if proc.block(placement.bid).kind is not TerminatorKind.UNCOND:
                    continue
                if placement.branch_removed:
                    continue
                weight = profile.weight(name, placement.bid, placement.taken_target)
                wrong = [b for b in bids if b != placement.taken_target]
                if weight and wrong and (best is None or weight > best[0]):
                    best = (weight, name, placement, "taken_target", wrong)
    if best is None:
        return None
    _, name, victim, field_name, wrong = best
    image = link(layout).disassemble()
    while wrong:
        target = wrong[rng.randrange(len(wrong))]
        mutated = _swap_placement(
            layout, name, victim, replace(victim, **{field_name: target})
        )
        if link(mutated).disassemble() != image:
            return mutated
        wrong.remove(target)
    return None
