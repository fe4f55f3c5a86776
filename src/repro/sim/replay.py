"""Replay a decision trace through any layout (the replay-many half).

Where :mod:`repro.sim.decisions` captures the layout-*independent* half
of an execution (which successor every block picked), this module binds
the layout-*dependent* half: given a :class:`LinkedProgram`, each step
template compiles to the exact branch events :func:`repro.sim.executor.
execute` would emit under that layout — addresses from the lowered
blocks, branch senses from the placement's taken target, inserted and
removed unconditional branches from the linker's jump decisions.

So N layouts × 7 architectures costs one capture plus N cheap replays,
instead of N full executions.  Three tiers keep the replay cheap without
ever being unfaithful:

* **aggregate** — the static predictors (fallthrough, BT/FNT, likely)
  are stateless per site, so their penalty counts follow from per-site
  visit/taken totals, layout-resolved once per site, plus the
  layout-invariant return-stack statistics; no event loop at all.
* **slice** — the table predictors (direct-mapped PHT, gshare, BTB) are
  scored from per-source run summaries that every layout of a trace
  shares, built by one pass over the trace and cached on it.  A
  *source* is a block or a call; each branch site a layout gives it sees
  that source's steps and no others.  A direct-mapped counter that one
  executed site owns is a 2-bit counter walked in closed form over the
  source's runs; a counter several sites share (aliasing) replays just
  their steps, in stream order.  A BTB set that receives at most
  ``assoc`` lines never evicts, so its sites get closed forms too; an
  over-subscribed set replays only its own sites' events, which is
  exact because LRU order inside a set ignores every other set.  gshare
  mixes every site through its global history, so it runs its update
  inlined over the conditional steps alone, a run of one template at a
  time.  Returns come from the trace's return-stack statistics.
* **faithful** — any other listener (trace capture, recorders,
  subclassed predictors, the Alpha timing model) receives every event
  through the same ``on_event`` protocol the executor uses, in the same
  order.

The cheaper tiers are keyed on *exact* type — a subclass (e.g. the
tournament PHT) drops to the faithful tier rather than silently
inheriting the wrong update rule — and need an empty return stack, which
the trace's return statistics assume; a BTB must also start empty.  A
sim they score is left as a per-event run leaves it (PHT counters, gshare
history, BTB lines in LRU order, tallies; the return stack ends empty
either way), so it can be run again.
Differential checking (``--replay-check``, ``REPRO_REPLAY_CHECK=1``) and
claim 14 assert bit-identity of the resulting
:class:`~repro.sim.metrics.SimulationReport`.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter, ne, sub
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple,
)

from ..isa.encoder import INSTRUCTION_BYTES, LinkedProgram
from ..cfg import BlockId, TerminatorKind
from . import trace as tr
from .decisions import DecisionTrace, T_BRANCH, T_CALL, T_RET
from .executor import ExecutionResult, check_behaviours
from .predictors.btb import BTBSim, _Entry as _BTBEntry
from .predictors.pht import CorrelationPHT, DirectMappedPHT
from .predictors.static_ import BTFNTSim, FallthroughSim, LikelySim


class ReplayMismatchError(AssertionError):
    """The replay engine disagreed with the legacy execute engine."""


#: One realised branch event: (kind, site address, target address, taken).
Event = Tuple[int, int, int, bool]


class EventListener(Protocol):
    """Anything consuming the executor's per-event protocol."""

    def on_event(self, event: Event) -> None: ...


class BlockListener(Protocol):
    """Anything consuming the executor's per-block protocol."""

    def on_block(self, start: int, size: int) -> None: ...


class _Step:
    """One step template bound to a layout (hot-loop friendly)."""

    __slots__ = ("events", "enter_start", "enter_size", "enter_proc", "enter_bid", "edge")

    events: Tuple[Event, ...]
    enter_start: int
    enter_size: int
    enter_proc: Optional[str]
    enter_bid: Optional[BlockId]
    edge: Optional[Tuple[str, BlockId, BlockId]]

    def __init__(
        self,
        events: Tuple[Event, ...],
        enter: Optional[Tuple[str, BlockId, int, int]],
        edge: Optional[Tuple[str, BlockId, BlockId]],
    ):
        self.events = events
        if enter is None:
            self.enter_size = -1
            self.enter_start = 0
            self.enter_proc = None
            self.enter_bid = None
        else:
            self.enter_proc, self.enter_bid, self.enter_start, self.enter_size = enter
        self.edge = edge


def compile_steps(linked: LinkedProgram, trace: DecisionTrace) -> List[_Step]:
    """Bind every step template to ``linked``'s addresses and senses.

    Reads only the blocks the templates name: addresses, the taken target
    and the removed branch from ``linked.blocks``, block kinds and call
    offsets from the CFG.
    """
    program = linked.program
    check_behaviours(program)
    placed = linked.blocks
    procedures = program.procedures
    step = INSTRUCTION_BYTES
    cond_k, uncond_k, indirect_k = tr.COND, tr.UNCOND, tr.INDIRECT
    call_k, icall_k, ret_k = tr.CALL, tr.ICALL, tr.RET
    cond, fallthrough, uncond = (
        TerminatorKind.COND, TerminatorKind.FALLTHROUGH, TerminatorKind.UNCOND
    )

    compiled: List[_Step] = []
    for template in trace.templates:
        kind = template[0]
        if kind == T_BRANCH:
            _, proc, bid, succ = template
            blocks = placed[proc]
            lb = blocks[bid]
            dst = blocks[succ]
            block_kind = procedures[proc].blocks[bid].kind
            if block_kind is cond:
                site = lb.term_address
                assert site is not None  # a conditional keeps its branch
                if succ == lb.placement.taken_target:
                    events: Tuple = ((cond_k, site, dst.start, True),)
                elif lb.jump_address is not None:
                    events = (
                        (cond_k, site, site + step, False),
                        (uncond_k, lb.jump_address, dst.start, True),
                    )
                else:
                    events = ((cond_k, site, site + step, False),)
            elif block_kind is fallthrough:
                if lb.jump_address is not None:
                    events = ((uncond_k, lb.jump_address, dst.start, True),)
                else:
                    events = ()
            elif block_kind is uncond:
                if lb.placement.branch_removed:
                    events = ()
                else:
                    events = ((uncond_k, lb.term_address, dst.start, True),)
            else:  # INDIRECT
                events = ((indirect_k, lb.term_address, dst.start, True),)
            compiled.append(
                _Step(events, (proc, succ, dst.start, dst.size), (proc, bid, succ))
            )
        elif kind == T_CALL:
            _, proc, bid, call_idx, callee = template
            call = procedures[proc].blocks[bid].calls[call_idx]
            site = placed[proc][bid].call_address(call.offset)
            entry_bid = procedures[callee].entry
            entry = placed[callee][entry_bid]
            event_kind = icall_k if call.chooser is not None else call_k
            events = ((event_kind, site, entry.start, True),)
            compiled.append(_Step(events, (callee, entry_bid, entry.start, entry.size), None))
        elif kind == T_RET:
            _, proc, bid, caller_proc, caller_bid, resume_idx = template
            call = procedures[caller_proc].blocks[caller_bid].calls[resume_idx - 1]
            ret_site = placed[caller_proc][caller_bid].call_address(call.offset)
            events = ((ret_k, placed[proc][bid].term_address, ret_site + step, True),)
            compiled.append(_Step(events, None, None))
        else:  # T_FINAL
            _, proc, bid = template
            events = ((ret_k, placed[proc][bid].term_address, 0, True),)
            compiled.append(_Step(events, None, None))
    return compiled


def replay(
    linked: LinkedProgram,
    trace: DecisionTrace,
    listeners: Sequence[EventListener] = (),
    block_listeners: Sequence[BlockListener] = (),
    profile_hook: Optional[Callable[[str, BlockId, BlockId], None]] = None,
    block_hook: Optional[Callable[[str, BlockId], None]] = None,
    compiled: Optional[List[_Step]] = None,
) -> ExecutionResult:
    """Faithful replay: same events, hooks and order as execute.

    Drop-in equivalent of an uncapped :func:`repro.sim.executor.execute`
    driven by a decision trace instead of behaviours.
    """
    if compiled is None:
        compiled = compile_steps(linked, trace)
    program = linked.program
    emit = [listener.on_event for listener in listeners]
    on_block = [listener.on_block for listener in block_listeners]

    entry_proc = program.entry
    entry_bid = program.procedure(entry_proc).entry
    entry_lb = linked.block(entry_proc, entry_bid)

    instructions = entry_lb.size
    events = 0
    blocks_executed = 1
    if on_block:
        for cb in on_block:
            cb(entry_lb.start, entry_lb.size)
    if block_hook is not None:
        block_hook(entry_proc, entry_bid)

    for tid in trace.iter_steps():
        step = compiled[tid]
        edge = step.edge
        if edge is not None and profile_hook is not None:
            profile_hook(edge[0], edge[1], edge[2])
        step_events = step.events
        if step_events:
            for event in step_events:
                for cb in emit:
                    cb(event)
            events += len(step_events)
        if step.enter_size >= 0:
            instructions += step.enter_size
            blocks_executed += 1
            if on_block:
                for cb in on_block:
                    cb(step.enter_start, step.enter_size)
            if (
                block_hook is not None
                and step.enter_proc is not None
                and step.enter_bid is not None
            ):
                block_hook(step.enter_proc, step.enter_bid)

    return ExecutionResult(instructions=instructions, events=events, blocks=blocks_executed)


# -- layout-level aggregates ------------------------------------------


class _Aggregates:
    """Per-layout event totals derived from templates alone."""

    __slots__ = (
        "instructions",
        "events",
        "cond_sites",
        "cond_executed",
        "cond_taken",
        "uncond_events",
        "call_events",
        "icall_events",
        "indirect_events",
        "ret_events",
    )

    def __init__(self, linked: LinkedProgram, trace: DecisionTrace, compiled: List[_Step]):
        program = linked.program
        self.instructions = 0
        for (proc, bid), visits in trace.visit_counts(program).items():
            self.instructions += visits * linked.block(proc, bid).size
        self.events = 0
        #: site -> [visits, taken] for every executed conditional site.
        self.cond_sites: Dict[int, List[int]] = {}
        self.cond_executed = 0
        self.cond_taken = 0
        self.uncond_events = 0
        self.call_events = 0
        self.icall_events = 0
        self.indirect_events = 0
        self.ret_events = 0
        cond_k, uncond_k, indirect_k = tr.COND, tr.UNCOND, tr.INDIRECT
        call_k, icall_k = tr.CALL, tr.ICALL
        for step, count in zip(compiled, trace.counts):
            if not step.events or not count:
                continue
            self.events += len(step.events) * count
            for kind, site, _target, taken in step.events:
                if kind == cond_k:
                    entry = self.cond_sites.setdefault(site, [0, 0])
                    entry[0] += count
                    self.cond_executed += count
                    if taken:
                        entry[1] += count
                        self.cond_taken += count
                elif kind == uncond_k:
                    self.uncond_events += count
                elif kind == call_k:
                    self.call_events += count
                elif kind == icall_k:
                    self.icall_events += count
                elif kind == indirect_k:
                    self.indirect_events += count
                else:
                    self.ret_events += count


def _serve_ras(sim: Any, trace: DecisionTrace) -> int:
    """Add the trace's return-stack tallies to ``sim.ras``; return its mispredicts.

    Exact for an empty return stack (see :meth:`DecisionTrace.ras_stats`),
    which every caller checks first.
    """
    pushes, pops, correct = trace.ras_stats(sim.ras.depth)
    ras = sim.ras
    ras.pushes += pushes
    ras.pops += pops
    ras.correct += correct
    return pops - correct


def _serve_static(sim: Any, agg: _Aggregates, trace: DecisionTrace) -> None:
    """Apply a whole replay to a stateless-per-site static predictor.

    Uses the sim's own ``predict_cond`` once per site (the prediction is
    layout-adjusted — BT/FNT reads the layout's taken target, likely
    bits flip with inversions) and the trace's return-stack statistics,
    which are layout-invariant (see :meth:`DecisionTrace.ras_stats`).
    """
    predict = sim.predict_cond
    mis_t = mis_n = 0
    for site, (visits, taken) in agg.cond_sites.items():
        if predict(site):
            mis_n += visits - taken
        else:
            mis_t += taken
    _book(sim, agg, trace, mis_t, mis_n)


def _book(sim: Any, agg: _Aggregates, trace: DecisionTrace, mis_t: int, mis_n: int) -> None:
    """Book a direction predictor's totals from its mispredicted taken
    and not-taken conditional counts, under the static/PHT penalty
    rules: a correctly predicted taken conditional, an unconditional
    branch or a direct call misfetches; a mispredicted conditional, an
    indirect jump or call, or a mispredicted return mispredicts.
    """
    counts = sim.counts
    ras_mispredicts = _serve_ras(sim, trace)
    counts.cond_executed += agg.cond_executed
    counts.cond_correct += agg.cond_executed - mis_t - mis_n
    counts.misfetches += agg.cond_taken - mis_t + agg.uncond_events + agg.call_events
    counts.mispredicts += (
        mis_t + mis_n + agg.icall_events + agg.indirect_events + ras_mispredicts
    )


# -- slice tier ---------------------------------------------------------


#: ``_RUN[taken][value][n]``: ``(value', mispredicts)`` of a 2-bit
#: counter at ``value`` after ``n`` equal outcomes.  It saturates at 0
#: and 3 and mispredicts until it crosses the threshold, so three steps
#: tell as much as any longer run and ``n`` stops at 3.
_RUN = tuple(
    tuple(
        tuple(
            (min(3, value + n), min(n, max(0, 2 - value)))
            if taken
            else (max(0, value - n), min(n, max(0, value - 1)))
            for n in range(4)
        )
        for value in range(4)
    )
    for taken in (False, True)
)


def _counter_over_runs(
    runs: Sequence[int], taken: Sequence[int], value: int
) -> Tuple[int, int, int]:
    """Walk a 2-bit counter over run codes ``tid << 2 | min(length, 3)``.

    ``taken`` lists the taken template ids.  Returns ``(final value,
    mispredicted taken, mispredicted not-taken)``.
    """
    up, down = _RUN[1], _RUN[0]
    mis_t = mis_n = 0
    for code in runs:
        if code >> 2 in taken:
            value, mispredicts = up[value][code & 3]
            mis_t += mispredicts
        else:
            value, mispredicts = down[value][code & 3]
            mis_n += mispredicts
    return value, mis_t, mis_n


def _typecode(limit: int) -> str:
    """The smallest array typecode holding every int in ``range(limit)``."""
    return "B" if limit <= 0x100 else "H" if limit <= 0x10000 else "q"


def _pick(chunk: "array[int]", flags: bytes) -> Iterator[int]:
    """The ids in ``chunk`` whose flag is set, filtered at C speed.

    ``itemgetter`` reads every flag in one call; the trailing 0 keeps its
    result a tuple even for a one-id chunk.
    """
    return compress(chunk, itemgetter(*chunk, 0)(flags))


#: Steps :func:`_flagged_runs` groups into runs at a time.
_RUN_WINDOW = 2048


def _flagged_runs(
    trace: DecisionTrace, flags: bytes
) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
    """The flagged templates' steps, in stream order, as runs of one id.

    Yields ``(heads, lengths)`` a window at a time, which keeps the
    temporary lists short.  A run cut by a window or chunk edge arrives in
    pieces; every use of these runs gives the same result for the pieces
    as for the whole run.
    """
    for chunk in trace.iter_chunks():
        for lo in range(0, len(chunk), _RUN_WINDOW):
            ids = list(_pick(chunk[lo:lo + _RUN_WINDOW], flags))
            if ids:
                bounds = list(compress(range(1, len(ids)), map(ne, ids[1:], ids)))
                starts = [0, *bounds]
                yield (
                    itemgetter(*starts, 0)(ids)[:-1],
                    list(map(sub, [*bounds, len(ids)], starts)),
                )


class _Slices:
    """Per-source run summaries of one decision trace (layout-independent).

    A *source* is one block (the ``T_BRANCH`` templates leaving it) or
    one call (the ``T_CALL`` templates through it).  Whatever the layout,
    each branch site it creates is reached from a single source, so the
    site's predictor outcomes follow from that source's template-id
    sub-stream alone.  Built once per trace, by one pass over the
    conditional steps and the steps of multi-template sources, and
    cached on the trace.

    ``runs[s]`` holds the sub-stream of source ``s`` as run codes
    ``tid << 2 | min(length, 3)`` (see :data:`_RUN`);
    ``first_length[s]`` is the exact length of its first run.
    ``last_step[tid]`` is the stream index of the template's last step.
    ``cond`` flags the conditional-branch templates; ``cond_tids`` and
    ``cond_lengths`` hold their steps in stream order as runs of equal
    ids.  ``memo`` caches closed forms, which depend on a layout only
    through the taken templates of a site.
    """

    __slots__ = (
        "tids_of", "runs", "first_length", "last_step",
        "cond", "cond_tids", "cond_lengths", "memo",
    )

    def __init__(self, trace: DecisionTrace, cond: bytes):
        counts = trace.counts
        chunks = list(trace.iter_chunks())
        ids: Dict[Tuple[Any, ...], int] = {}
        source_of: List[int] = []
        for template in trace.templates:
            kind = template[0]
            if kind == T_BRANCH:
                key: Tuple[Any, ...] = template[1:3]
            elif kind == T_CALL:
                key = template[:4]
            else:
                source_of.append(-1)
                continue
            source_of.append(ids.setdefault(key, len(ids)))
        tids_of: List[List[int]] = [[] for _ in ids]
        for tid, source in enumerate(source_of):
            if source >= 0 and counts[tid]:
                tids_of[source].append(tid)

        runs_code = _typecode(len(counts) << 2)
        runs: List["array[int]"] = [array(runs_code) for _ in ids]
        first_length = [0] * len(ids)
        for source, tids in enumerate(tids_of):
            if len(tids) == 1:
                runs[source].append(tids[0] << 2 | min(counts[tids[0]], 3))
                first_length[source] = counts[tids[0]]
        multi = bytes(s >= 0 and len(tids_of[s]) > 1 for s in source_of)
        wanted = bytes(c or m for c, m in zip(cond, multi))
        cond_tids: "array[int]" = array(_typecode(len(counts)))
        cond_lengths: "array[int]" = array(_typecode(_RUN_WINDOW + 1))
        last = [-1] * len(ids)
        length = [0] * len(ids)
        for heads, lengths in _flagged_runs(trace, wanted):
            is_cond = itemgetter(*heads, 0)(cond)
            cond_tids.extend(compress(heads, is_cond))
            cond_lengths.extend(compress(lengths, is_cond))
            for tid, n in compress(zip(heads, lengths), itemgetter(*heads, 0)(multi)):
                source = source_of[tid]
                if last[source] == tid:
                    length[source] += n
                    continue
                previous = last[source]
                if previous >= 0:
                    if not runs[source]:
                        first_length[source] = length[source]
                    runs[source].append(previous << 2 | min(length[source], 3))
                last[source] = tid
                length[source] = n
        for source, previous in enumerate(last):
            if previous >= 0:
                if not runs[source]:
                    first_length[source] = length[source]
                runs[source].append(previous << 2 | min(length[source], 3))

        last_step = [-1] * len(counts)
        seen: Set[int] = set()
        pending = sum(1 for count in counts if count)
        end = trace.steps
        for chunk in reversed(chunks):
            fresh = set(chunk) - seen
            if fresh:
                # Later positions overwrite earlier ones: the last step wins.
                position = dict(zip(chunk, range(end - len(chunk), end)))
                for tid in fresh:
                    last_step[tid] = position[tid]
                seen |= fresh
                if len(seen) == pending:
                    break
            end -= len(chunk)

        self.tids_of = tids_of
        self.runs = runs
        self.first_length = first_length
        self.last_step = last_step
        self.cond = cond
        self.cond_tids = cond_tids
        self.cond_lengths = cond_lengths
        self.memo: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}


class _Site:
    """One branch site of one layout: its source and the steps reaching it."""

    __slots__ = ("kind", "source", "tids", "targets", "taken", "last", "last_target")

    def __init__(self, kind: int, source: int):
        self.kind = kind
        self.source = source
        #: Templates with an event here, each event's target, and the
        #: templates whose event is taken.
        self.tids: List[int] = []
        self.targets: List[int] = []
        self.taken: List[int] = []
        #: ``step << 2 | event index`` of the last event here, and its target.
        self.last = -1
        self.last_target = 0


class _Layout:
    """One layout's replay inputs; slice views are built on first use."""

    def __init__(self, linked: LinkedProgram, trace: DecisionTrace):
        self.trace = trace
        self.compiled = compile_steps(linked, trace)
        self.agg = _Aggregates(linked, trace, self.compiled)
        self._slices: Optional[_Slices] = None
        self._sites: Optional[Dict[int, _Site]] = None
        self._ready: Optional[bool] = None

    def slices(self) -> Optional[_Slices]:
        """The trace's slices, or None if this layout's program disagrees."""
        if self._ready is None:
            cond_k = tr.COND
            cond = bytes(
                bool(step.events) and step.events[0][0] == cond_k
                for step in self.compiled
            )
            cached = self.trace._slices
            if not isinstance(cached, _Slices):
                cached = self.trace._slices = _Slices(self.trace, cond)
            self._ready = cached.cond == cond
            self._slices = cached
        return self._slices if self._ready else None

    def sites(self, slices: _Slices) -> Dict[int, _Site]:
        """Every branch site of this layout that some source reaches."""
        if self._sites is None:
            sites: Dict[int, _Site] = {}
            last_step = slices.last_step
            for source, tids in enumerate(slices.tids_of):
                for tid in tids:
                    for index, (kind, site, target, taken) in enumerate(
                        self.compiled[tid].events
                    ):
                        entry = sites.get(site)
                        if entry is None:
                            entry = sites[site] = _Site(kind, source)
                        elif entry.kind != kind or entry.source != source:
                            entry.source = -1  # not one source's: no closed form
                        entry.tids.append(tid)
                        entry.targets.append(target)
                        if taken:
                            entry.taken.append(tid)
                        access = last_step[tid] << 2 | index
                        if access > entry.last:
                            entry.last = access
                            entry.last_target = target
            self._sites = sites
        return self._sites


def _score_direct_pht(sim: DirectMappedPHT, layout: _Layout, slices: _Slices) -> None:
    """Direct-mapped PHT, scored counter by counter.

    A counter sees only the outcomes of the conditional sites that index
    it.  A counter one site owns follows in closed form from the runs of
    that site's source; a counter several sites share (or a site that is
    not all one source's) replays just its sites' steps, in stream
    order, a run of one template at a time.
    """
    table = sim.table
    counters = table.counters
    mask = table.mask
    tids_of = slices.tids_of
    cond_k = tr.COND
    owners: Dict[int, List[_Site]] = {}
    for site, entry in layout.sites(slices).items():
        if entry.kind == cond_k:
            owners.setdefault((site >> 2) & mask, []).append(entry)

    memo = slices.memo
    runs = slices.runs
    mis_t = mis_n = 0
    shared = bytearray(len(layout.compiled))
    for index, entries in owners.items():
        entry = entries[0]
        if (
            len(entries) > 1
            or entry.source < 0
            or len(entry.tids) != len(tids_of[entry.source])
        ):
            for sharer in entries:
                for tid in sharer.tids:
                    shared[tid] = 1
            continue
        key = ("pht", entry.source, tuple(entry.taken), counters[index])
        result = memo.get(key)
        if result is None:
            result = memo[key] = _counter_over_runs(
                runs[entry.source], entry.taken, counters[index]
            )
        counters[index] = result[0]
        mis_t += result[1]
        mis_n += result[2]

    if any(shared):
        # The conditional runs with the other counters' steps taken out:
        # the pieces of a run compose exactly.
        up, down = _RUN[1], _RUN[0]
        compiled = layout.compiled
        cond_tids = slices.cond_tids
        for tid, n in compress(
            zip(cond_tids, slices.cond_lengths), map(shared.__getitem__, cond_tids)
        ):
            _, site, _, taken = compiled[tid].events[0]
            index = (site >> 2) & mask
            if taken:
                counters[index], mispredicts = up[counters[index]][min(n, 3)]
                mis_t += mispredicts
            else:
                counters[index], mispredicts = down[counters[index]][min(n, 3)]
                mis_n += mispredicts
    _book(sim, layout.agg, layout.trace, mis_t, mis_n)


def _score_gshare(sim: CorrelationPHT, layout: _Layout, slices: _Slices) -> None:
    """gshare's inlined update, run over the conditional steps a run at a time.

    A run's first step is scored on its own, and only a longer run
    enters a loop, which stops after ``history_bits + 3`` steps of the
    run: by then the history holds only that outcome and the one counter
    it indexes is saturated, so every further step predicts correctly
    and changes nothing.

    The table is indexed by ``key ^ history`` with no mask, which needs a
    history no wider than the index.  A wider register only carries bits
    above the index, which never reach it, so the loop shifts the
    register's low bits and the whole register is shifted through the
    same outcomes afterwards.
    """
    compiled = layout.compiled
    table = sim.table
    counters = table.counters
    mask = table.mask
    keys = [0] * len(compiled)
    taken_of = [False] * len(compiled)
    for tid in compress(range(len(compiled)), slices.cond):
        _, site, _, taken = compiled[tid].events[0]
        keys[tid] = (site >> 2) & mask
        taken_of[tid] = taken
    history_mask = sim.history_mask
    low = history_mask & mask  # both are 2**k - 1: the narrower one
    history = sim.history & low
    cap = sim.history_bits + 3
    mis_t = mis_n = 0
    for tid, n in zip(slices.cond_tids, slices.cond_lengths):
        key = keys[tid]
        if taken_of[tid]:
            index = key ^ history
            value = counters[index]
            if value < 3:
                counters[index] = value + 1
                if value < 2:
                    mis_t += 1
            history = ((history << 1) | 1) & low
            if n > 1:
                for _ in range(1, n if n < cap else cap):
                    index = key ^ history
                    value = counters[index]
                    if value < 3:
                        counters[index] = value + 1
                        if value < 2:
                            mis_t += 1
                    history = ((history << 1) | 1) & low
        else:
            index = key ^ history
            value = counters[index]
            if value > 0:
                counters[index] = value - 1
                if value > 1:
                    mis_n += 1
            history = (history << 1) & low
            if n > 1:
                for _ in range(1, n if n < cap else cap):
                    index = key ^ history
                    value = counters[index]
                    if value > 0:
                        counters[index] = value - 1
                        if value > 1:
                            mis_n += 1
                    history = (history << 1) & low
    if low != history_mask:
        history = sim.history
        width = sim.history_bits
        for tid, n in zip(slices.cond_tids, slices.cond_lengths):
            n = min(n, width)
            outcomes = (1 << n) - 1 if taken_of[tid] else 0
            history = ((history << n) | outcomes) & history_mask
    sim.history = history
    _book(sim, layout.agg, layout.trace, mis_t, mis_n)


#: One closed-form BTB site: (events, misses, misfetches, mispredicts,
#: correct conditionals, resident line as (target, counter) or None).
_BTBSite = Tuple[int, int, int, int, int, Optional[Tuple[int, int]]]


def _btb_site(slices: _Slices, entry: _Site, counts: Sequence[int]) -> Optional[_BTBSite]:
    """A BTB site's totals in closed form, if it never loses its line.

    Conditional: misses (all predicted not-taken, correctly) up to the
    first taken step, which mispredicts and inserts the line at counter
    2; every later step hits and runs the counter.  Unconditional and
    call: the first step misses, misfetches and inserts; later steps
    hit.  Indirect jump and call: the first step misses and mispredicts;
    a hit mispredicts whenever the target differs from the previous
    step's.  Returns None when the site's steps are not its source's
    run sequence.
    """
    source = entry.source
    if source < 0:
        return None
    runs = slices.runs[source]
    kind = entry.kind
    events = sum(counts[tid] for tid in entry.tids)
    if kind == tr.COND:
        if not entry.taken:
            return events, events, 0, 0, events, None
        if len(entry.taken) > 1 or len(entry.tids) != len(slices.tids_of[source]):
            return None
        taken = entry.taken[0]
        key: Tuple[Any, ...] = ("btb", source, taken)
        result = slices.memo.get(key)
        if result is None:
            first = next(i for i, code in enumerate(runs) if code >> 2 == taken)
            if first > 1:
                return None
            prefix = slices.first_length[source] if first else 0
            # The inserting step leaves counter 2; the rest of its run
            # (if any) moves it to 3 with no mispredict.
            start = 3 if runs[first] & 3 > 1 else 2
            value, mis_t, mis_n = _counter_over_runs(runs[first + 1:], (taken,), start)
            result = slices.memo[key] = (prefix + 1, 1 + mis_t + mis_n, value)
        misses, mispredicts, value = result
        line = (entry.targets[entry.tids.index(taken)], value)
        return events, misses, 0, mispredicts, events - mispredicts, line
    if kind == tr.UNCOND or kind == tr.CALL:
        return events, 1, 1, 0, 0, (entry.last_target, 2)
    # INDIRECT / ICALL: consecutive steps here are consecutive runs, and
    # consecutive runs have different templates.
    if len(entry.tids) != len(slices.tids_of[source]):
        return None
    if len(set(entry.targets)) == len(entry.targets):
        changes = len(runs) - 1
    else:
        target_of = dict(zip(entry.tids, entry.targets))
        changes = sum(
            1
            for before, after in zip(runs, runs[1:])
            if target_of[before >> 2] != target_of[after >> 2]
        )
    return events, 1, 0, 1 + changes, 0, (entry.last_target, 2)


def _score_btb(sim: BTBSim, layout: _Layout, slices: _Slices) -> None:
    """BTB scored per site, with LRU replay only where a set overflows.

    A set that receives at most ``assoc`` lines never evicts, so each of
    its sites is scored in closed form (:func:`_btb_site`).  An
    over-subscribed set replays its own sites' events in stream order
    through :class:`_BTBFeed` — exact, because LRU order within a set
    ignores every other set.  The BTB is left holding the lines, LRU
    order and clock a per-event run would leave (closed-form stamps keep
    their order, not their values).
    """
    btb = sim.btb
    nsets = btb.sets
    trace_counts = layout.trace.counts
    compiled = layout.compiled
    ret_k = tr.RET
    # Every executed taken event inserts a line (only conditionals are
    # ever not taken), so these are the sites that ever hold one.
    lines_at = {
        site
        for tids in slices.tids_of
        for tid in tids
        for kind, site, _, taken in compiled[tid].events
        if taken and kind != ret_k
    }
    occupancy = [0] * nsets
    for site in lines_at:
        occupancy[(site >> 2) % nsets] += 1
    spilled = {i for i, n in enumerate(occupancy) if n > btb.assoc}
    counts = sim.counts
    counts.cond_executed += layout.agg.cond_executed
    counts.mispredicts += _serve_ras(sim, layout.trace)
    closed: List[Tuple[int, _Site, _BTBSite]] = []
    for site, entry in layout.sites(slices).items():
        set_index = (site >> 2) % nsets
        if set_index not in spilled:
            result = _btb_site(slices, entry, trace_counts)
            if result is None:
                spilled.add(set_index)
            else:
                closed.append((site, entry, result))

    if spilled:
        events_of = [
            tuple(e for e in step.events if e[0] != ret_k and (e[1] >> 2) % nsets in spilled)
            for step in compiled
        ]
        wanted = bytes(bool(events) for events in events_of)
        feed = _BTBFeed(sim)
        for chunk in layout.trace.iter_chunks():
            realized: List[Event] = []
            extend = realized.extend
            for tid in _pick(chunk, wanted):
                extend(events_of[tid])
            feed.feed(realized)

    sets = btb._sets
    lines: List[Tuple[int, int, Tuple[int, int]]] = []
    for site, entry, (events, misses, misfetches, mispredicts, correct, line) in closed:
        if (site >> 2) % nsets in spilled:
            continue
        btb.hits += events - misses
        btb.misses += misses
        btb._clock += events
        counts.misfetches += misfetches
        counts.mispredicts += mispredicts
        counts.cond_correct += correct
        if line is not None:
            btb._clock += 1
            lines.append((entry.last, site, line))
    lines.sort()
    for stamp, (_, site, (target, counter)) in enumerate(lines, 1):
        sets[(site >> 2) % nsets][site] = _BTBEntry(target, counter, stamp)


class _BTBFeed:
    """BTBSim.on_event's BTB half (lookup/insert inlined) over event chunks.

    Chunks hold no returns (they never touch the BTB; the slice tier
    takes the return stack from the trace), and ``cond_executed`` is
    booked by the caller.
    """

    def __init__(self, sim: BTBSim):
        self.sim = sim

    def feed(self, chunk: List[Event]) -> None:
        sim = self.sim
        counts = sim.counts
        btb = sim.btb
        sets = btb._sets
        nsets = btb.sets
        assoc = btb.assoc
        clock = btb._clock
        hits = btb.hits
        misses = btb.misses
        make_entry = _BTBEntry
        mis = counts.misfetches
        mp = counts.mispredicts
        cc = counts.cond_correct
        for kind, site, target, taken in chunk:
            clock += 1
            bucket = sets[(site >> 2) % nsets]
            entry = bucket.get(site)
            if kind == 0:  # COND
                if entry is not None:
                    hits += 1
                    entry.stamp = clock
                    predicted = entry.counter >= 2
                    if taken:
                        if entry.counter < 3:
                            entry.counter += 1
                        entry.target = target
                    elif entry.counter > 0:
                        entry.counter -= 1
                else:
                    misses += 1
                    predicted = False
                    if taken:
                        clock += 1
                        if len(bucket) >= assoc:
                            victim = min(bucket, key=lambda tag: bucket[tag].stamp)
                            del bucket[victim]
                        bucket[site] = make_entry(target, 2, clock)
                if predicted == taken:
                    cc += 1
                else:
                    mp += 1
            elif kind == 1 or kind == 3:  # UNCOND / CALL
                if entry is None:
                    misses += 1
                    mis += 1
                    clock += 1
                    if len(bucket) >= assoc:
                        victim = min(bucket, key=lambda tag: bucket[tag].stamp)
                        del bucket[victim]
                    bucket[site] = make_entry(target, 2, clock)
                else:
                    hits += 1
                    entry.stamp = clock
            else:  # ICALL / INDIRECT
                if entry is None:
                    misses += 1
                    mp += 1
                    clock += 1
                    if len(bucket) >= assoc:
                        victim = min(bucket, key=lambda tag: bucket[tag].stamp)
                        del bucket[victim]
                    bucket[site] = make_entry(target, 2, clock)
                else:
                    hits += 1
                    entry.stamp = clock
                    if entry.target != target:
                        mp += 1
                        entry.target = target
        btb._clock = clock
        btb.hits = hits
        btb.misses = misses
        counts.misfetches = mis
        counts.mispredicts = mp
        counts.cond_correct = cc


class _GenericFeed:
    """Faithful per-event feed for listeners outside the cheaper tiers."""

    def __init__(self, listener: EventListener):
        self.on_event = listener.on_event

    def feed(self, chunk: List[Event]) -> None:
        cb = self.on_event
        for event in chunk:
            cb(event)


_AGGREGATE_TYPES = (FallthroughSim, BTFNTSim, LikelySim)
_SLICE_TYPES = (DirectMappedPHT, CorrelationPHT, BTBSim)


def _serve(sim: Any, layout: _Layout) -> Optional[_GenericFeed]:
    """Score ``sim`` off aggregates or slices, or return its event feed.

    Dispatch is by exact type — subclasses (tournament, local-history
    PHTs) override update rules and must not inherit a closed form — and
    needs an empty return stack, which the trace's return statistics
    assume; a BTB must also start empty.  Anything else gets the faithful
    :class:`_GenericFeed`.
    """
    sim_type = type(sim)
    if sim_type not in _AGGREGATE_TYPES and sim_type not in _SLICE_TYPES:
        return _GenericFeed(sim)
    if sim.ras._live:
        return _GenericFeed(sim)
    if sim_type in _AGGREGATE_TYPES:
        _serve_static(sim, layout.agg, layout.trace)
        return None
    slices = layout.slices()
    if slices is None:
        return _GenericFeed(sim)
    if sim_type is DirectMappedPHT:
        _score_direct_pht(sim, layout, slices)
        return None
    if sim_type is CorrelationPHT:
        _score_gshare(sim, layout, slices)
        return None
    if any(sim.btb._sets):
        return _GenericFeed(sim)
    _score_btb(sim, layout, slices)
    return None


def run_architectures(
    linked: LinkedProgram,
    trace: DecisionTrace,
    sims: Sequence[Any],
) -> Tuple[int, int, int, int]:
    """Feed every simulator one replay of ``trace`` under ``linked``.

    Returns ``(instructions, events, cond_executed, cond_taken)`` — the
    stream totals the :class:`SimulationReport` header wants.  Each sim
    is served by the cheapest exact tier its type and state allow.
    """
    layout = _Layout(linked, trace)
    feeds = [feed for feed in (_serve(sim, layout) for sim in sims) if feed is not None]
    if feeds:
        events_of = [step.events for step in layout.compiled]
        for chunk in trace.iter_chunks():
            realized: List[Event] = []
            extend = realized.extend
            for tid in chunk:
                step_events = events_of[tid]
                if step_events:
                    extend(step_events)
            for feed in feeds:
                feed.feed(realized)

    agg = layout.agg
    return agg.instructions, agg.events, agg.cond_executed, agg.cond_taken
