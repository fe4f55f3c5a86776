"""Layout-independent decision traces (the trace-once half of replay).

The paper's ATOM methodology traces each binary **once** and evaluates
every alignment/architecture combination against that single trace.  The
branch *decision* stream — which CFG successor every block picked, which
callee every indirect call resolved to — is a property of the workload
and seed alone; alignment only changes addresses and branch senses.

This module captures that stream without ever linking a binary.  One
walk of the :class:`~repro.cfg.Program` (consuming behaviours in exactly
the order :func:`repro.sim.executor.execute` would) produces a
:class:`DecisionTrace`: a small table of *step templates* (one per
distinct control transfer) plus a packed, chunked stream of template
ids.  Loops compress extremely well under this encoding — a million
iterations of a two-block loop are two templates and a million 8-byte
ids, streamed in bounded-memory chunks.

Traces persist through the crash-safe artifact store
(:mod:`repro.runner.store`) under a config fingerprint covering the
workload identity (melded or not) *and* the trace/ISA schema versions,
with an internal SHA-256 digest on top of the store's own manifest
checksum.  Any cache miss, staleness or corruption is handled by
quarantining the entry and transparently re-capturing — a trace cache
can never make a run wrong, only faster.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from array import array
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

if TYPE_CHECKING:
    from ..profiling.edge_profile import EdgeProfile

from ..cfg import BlockId, Program, TerminatorKind
from ..isa.encoder import INSTRUCTION_BYTES
from ..isa.serialize import FORMAT_VERSION as ISA_FORMAT_VERSION
from .behaviors import Loop
from .executor import ExecutionError, check_behaviours
from .predictors.ras import ReturnStack

#: Bump to invalidate every previously cached trace (schema evolution).
TRACE_SCHEMA_VERSION = 1

#: Template ids per stream chunk (64 KiB of packed ids at 8 bytes each).
CHUNK_STEPS = 8192

#: Step-template kinds (slot 0 of every template tuple).
T_BRANCH = 0  #: (T_BRANCH, proc, bid, succ_bid) — any intra-proc transfer
T_CALL = 1    #: (T_CALL, proc, bid, call_idx, callee) — direct or indirect
T_RET = 2     #: (T_RET, proc, bid, caller_proc, caller_bid, resume_idx)
T_FINAL = 3   #: (T_FINAL, proc, bid) — return from the entry procedure

_STREAM_TYPECODE = "q"


class TraceDecodeError(ValueError):
    """A persisted trace payload is stale, corrupt or malformed.

    ``reason`` is machine-checkable: ``stale-schema``, ``stale-fingerprint``,
    ``digest-mismatch`` or ``malformed``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        message = f"decision trace unusable ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def trace_fingerprint(workload: str, scale: float, seed: int, meld: bool = False) -> str:
    """Cache fingerprint for one ``(workload, scale, seed, meld)`` trace.

    ``meld`` says whether the traced program is the workload with its
    approved branch melds applied: melding changes the CFG, so a melded
    and a plain run of one workload never share a trace.  Besides the
    workload identity, the fingerprint covers the trace schema and the
    ISA encoding versions: bumping either invalidates every cached trace
    without touching the store on disk (old entries simply stop being
    addressed, and ``repro doctor --store --repair`` sweeps them out as
    stale).
    """
    blob = json.dumps(
        {
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "meld": meld,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "isa_format": ISA_FORMAT_VERSION,
            "instruction_bytes": INSTRUCTION_BYTES,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trace_key(workload: str, fingerprint: str) -> str:
    """Artifact-store key for a cached decision trace."""
    return f"trace/{workload}@{fingerprint}"


def is_trace_key(key: str) -> bool:
    """True if ``key`` names a cached decision trace."""
    return key.startswith("trace/")


class DecisionTrace:
    """A captured, layout-independent decision stream.

    ``templates[i]`` describes one distinct control transfer (see the
    ``T_*`` tuples above); ``counts[i]`` is its execution count; the
    chunked ``_chunks`` arrays hold the step stream as template ids in
    execution order.  Everything a replay needs that does not depend on
    the layout — block visit counts, the reconstructed edge profile,
    return-stack statistics — is derived (and cached) here.
    """

    def __init__(
        self,
        templates: List[Tuple],
        counts: List[int],
        chunks: List[array],
        steps: int,
        meta: Optional[Dict[str, object]] = None,
        fingerprint: Optional[str] = None,
    ):
        self.templates = templates
        self.counts = counts
        self._chunks = chunks
        self.steps = steps
        self.meta = dict(meta or {})
        self.fingerprint = fingerprint
        self._visit_counts: Optional[Dict[Tuple[str, BlockId], int]] = None
        self._ras_cache: Dict[int, Tuple[int, int, int]] = {}
        #: The replay slice tier's per-source run summaries, built on
        #: first use (see :mod:`repro.sim.replay`); never points back here.
        self._slices: Optional[object] = None

    # -- stream access -------------------------------------------------
    def iter_chunks(self) -> Iterator[array]:
        """Yield the packed template-id stream chunk by chunk."""
        return iter(self._chunks)

    def iter_steps(self) -> Iterator[int]:
        """Yield every template id in execution order."""
        for chunk in self._chunks:
            yield from chunk

    # -- layout-independent aggregates ---------------------------------
    def entered_block(self, template: Tuple, program: Program) -> Optional[Tuple[str, BlockId]]:
        """The block a step of this template enters fresh (None for returns)."""
        kind = template[0]
        if kind == T_BRANCH:
            return (template[1], template[3])
        if kind == T_CALL:
            callee = template[4]
            return (callee, program.procedure(callee).entry)
        return None

    def visit_counts(self, program: Program) -> Dict[Tuple[str, BlockId], int]:
        """Execution count per block, including the program entry block."""
        if self._visit_counts is None:
            visits: Dict[Tuple[str, BlockId], int] = {}
            entry = (program.entry, program.procedure(program.entry).entry)
            visits[entry] = 1
            for template, count in zip(self.templates, self.counts):
                key = self.entered_block(template, program)
                if key is not None:
                    visits[key] = visits.get(key, 0) + count
            self._visit_counts = visits
        return self._visit_counts

    def edge_profile(self, program: Program) -> EdgeProfile:
        """Reconstruct the exact edge profile a profiled run would record.

        The executor's ``profile_hook`` fires once per intra-procedural
        transfer — precisely the ``T_BRANCH`` steps — so the reconstructed
        profile equals ``profile_program``'s output bit for bit.
        """
        from ..profiling.edge_profile import EdgeProfile

        profile = EdgeProfile()
        for template, count in zip(self.templates, self.counts):
            if template[0] == T_BRANCH and count:
                profile.set_weight(template[1], template[2], template[3], count)
        return profile

    def _call_site_ids(self) -> Dict[Tuple[str, BlockId, int], int]:
        ids: Dict[Tuple[str, BlockId, int], int] = {}
        for template in self.templates:
            if template[0] == T_CALL:
                site = (template[1], template[2], template[3])
                ids.setdefault(site, len(ids))
        return ids

    def _longest_call_chain(self) -> Optional[int]:
        """Most calls live at once on any path of the executed call graph.

        None when that graph has a cycle (recursion), so no chain bounds
        the stack.  The graph is walked in topological order, iteratively.
        """
        callers: Dict[str, Set[str]] = {}
        for template in self.templates:
            if template[0] == T_CALL:
                callers.setdefault(template[4], set()).add(template[1])
        try:
            order = list(TopologicalSorter(callers).static_order())
        except CycleError:
            return None
        chain: Dict[str, int] = {}
        for proc in order:
            chain[proc] = max((chain[caller] + 1 for caller in callers.get(proc, ())), default=0)
        return max(chain.values(), default=0)

    def ras_stats(self, depth: int) -> Tuple[int, int, int]:
        """(pushes, pops, correct) of a ``depth``-entry return stack.

        Return-stack behaviour is layout-invariant: pushed values are
        call-site return addresses and pop targets are those same
        addresses, so prediction outcomes depend only on call-site
        *identity*.  When the executed call graph is acyclic and no chain
        of calls in it is deeper than the stack, no push is overwritten,
        every return pops its own call site and the final return pops an
        empty stack, so the tallies are the template counts: (calls,
        returns + final returns, returns).  Otherwise this replays the
        stack with small site ids (+1 so the final return's sentinel
        target 0 never matches a pushed value, exactly as address 0 never
        equals ``site + 4``).
        """
        if depth not in self._ras_cache:
            chain = self._longest_call_chain()
            if chain is None or chain > depth or depth < 1:
                self._ras_cache[depth] = self._walk_ras(depth)
            else:
                steps_of = [0, 0, 0, 0]  # by template kind
                for template, count in zip(self.templates, self.counts):
                    steps_of[template[0]] += count
                returns = steps_of[T_RET]
                self._ras_cache[depth] = (steps_of[T_CALL], returns + steps_of[T_FINAL], returns)
        return self._ras_cache[depth]

    def _walk_ras(self, depth: int) -> Tuple[int, int, int]:
        """Drive a ``depth``-entry return stack through every call and return."""
        site_ids = self._call_site_ids()
        actions: List[Tuple[bool, int]] = []  # (is_push, value)
        for template in self.templates:
            kind = template[0]
            if kind == T_CALL:
                actions.append((True, site_ids[(template[1], template[2], template[3])] + 1))
            elif kind == T_RET:
                actions.append((False, site_ids[(template[3], template[4], template[5] - 1)] + 1))
            elif kind == T_FINAL:
                actions.append((False, 0))
            else:
                actions.append((True, -1))  # branch: no RAS action
        ras = ReturnStack(depth)
        branch_k = T_BRANCH
        kinds = [t[0] for t in self.templates]
        push, pop = ras.push, ras.pop_predict
        for chunk in self._chunks:
            for tid in chunk:
                if kinds[tid] == branch_k:
                    continue
                is_push, value = actions[tid]
                if is_push:
                    push(value)
                else:
                    pop(value)
        return ras.pushes, ras.pops, ras.correct

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTrace(steps={self.steps}, templates={len(self.templates)}, "
            f"fingerprint={self.fingerprint!r})"
        )


#: Walk-record kinds.  A record is (kind, method, a, b, tails, site): the
#: behaviour method that decides (None if nothing does), two operands,
#: the tails cached by what the record chose, and the ``(procedure,
#: block)`` that templates name (a call's site also holds its index).
_COND = 0      #: a conditional; a and b are its taken and fall-through successors
_CYCLE = 1     #: a decision-free loop's conditional; a and b continue and exit
_CALL = 2      #: a call; a is the frame it pushes, b the direct callee
_RETURN = 3    #: a return; tails are keyed by the frame it pops
_INDIRECT = 4  #: an indirect jump; a is its targets
_FIXED = 5     #: a FALLTHROUGH or UNCOND terminator; a is the successor


def _fixed_run(
    entries: Dict[BlockId, Tuple], bid: BlockId
) -> Tuple[List[Tuple[BlockId, BlockId]], Optional[Tuple]]:
    """The transfers of the call-free fixed blocks from ``bid`` on.

    ``entries`` maps each block to the record a walk meets on entering
    it: its first call, else its terminator.  Returns the transfers as
    ``(block, successor)`` pairs and the entry record of the block the run
    stops at, the first that decides or calls: None if the run goes round
    a cycle that never reaches one.
    """
    run: List[Tuple[BlockId, BlockId]] = []
    while len(run) <= len(entries):
        record = entries[bid]
        if record[0] != _FIXED:
            return run, record
        run.append((bid, record[2]))
        bid = record[2]
    return run, None


def capture_decisions(
    program: Program,
    seed: int = 0,
    workload: Optional[str] = None,
    scale: Optional[float] = None,
    meld: bool = False,
) -> DecisionTrace:
    """Capture the decision stream of one ``(program, seed)`` run.

    Walks the CFG consuming block behaviours in exactly the order
    :func:`repro.sim.executor.execute` does, so a trace captured here and
    an execution with the same seed make identical decisions.  No layout
    is involved: the walk sees only blocks, edges and callees.
    ``workload``, ``scale`` and ``meld`` name the program for the trace
    cache (see :func:`trace_fingerprint`).

    The walk takes one decision per iteration (a conditional, an
    indirect jump, a call or a return) and appends what follows it in
    one extend: the transfer chosen, then the transfers of the call-free
    fall-through and unconditional blocks after it, up to the next block
    that decides or calls.  That run of steps is a *tail*.  A return
    into a fall-through or unconditional block whose calls are done
    carries that block's transfer and run too.  Tails are cached per
    record and choice and built on first use, so templates are numbered
    in the order a walk of one step at a time meets them.  A call-free
    conditional driven by an exact :class:`~repro.sim.behaviors.Loop`,
    whose continue tail leads back to it, emits the rest of each
    activation at once.
    """
    program.reset_behaviors(seed)
    check_behaviours(program)

    # A block is entered at its first call's record, else at its
    # terminator's; each call's frame resumes at the next call or the
    # terminator.  A frame indexes ``frames``: the caller, its block, the
    # call index to resume at and the record that resumes there.
    entries_of: Dict[str, Dict[BlockId, Tuple]] = {}
    frames: List[Tuple[str, BlockId, int, Tuple]] = []
    for proc in program:
        entries: Dict[BlockId, Tuple] = {}
        entries_of[proc.name] = entries
        for block in proc:
            bid = block.bid
            site = (proc.name, bid)
            ft = proc.fallthrough_edge(bid)
            taken = proc.taken_edge(bid)
            ft_dst = ft.dst if ft is not None else None
            taken_dst = taken.dst if taken is not None else None
            behavior = block.behavior
            term = block.kind
            if term is TerminatorKind.COND:
                record: Tuple = (_COND, behavior.choose, taken_dst, ft_dst, {}, site)
            elif term is TerminatorKind.FALLTHROUGH:
                record = (_FIXED, None, ft_dst, None, {}, site)
            elif term is TerminatorKind.UNCOND:
                record = (_FIXED, None, taken_dst, None, {}, site)
            elif term is TerminatorKind.INDIRECT:
                targets = [e.dst for e in proc.out_edges(bid)]
                method = behavior.choose if behavior is not None else None
                record = (_INDIRECT, method, targets, None, {}, site)
            else:
                record = (_RETURN, None, None, None, {}, site)
            for idx in reversed(range(len(block.calls))):
                call = block.calls[idx]
                frames.append((proc.name, bid, idx + 1, record))
                method = call.chooser.choose if call.chooser is not None else None
                record = (_CALL, method, len(frames) - 1, call.callee, {}, site + (idx,))
            entries[bid] = record
        # Decision-free cycles are found before the walk, so finding one
        # numbers no template.
        for block in proc:
            record = entries[block.bid]
            behavior = block.behavior
            if record[0] == _COND and type(behavior) is Loop:
                cont, leave = record[2], record[3]
                if not behavior.continue_taken:
                    cont, leave = leave, cont
                if _fixed_run(entries, cont)[1] is record:
                    entries[block.bid] = (
                        _CYCLE, behavior.finish_activation, cont, leave, {}, record[5]
                    )

    templates: List[Tuple] = []
    counts: List[int] = []
    chunks: List[array] = []
    ids: Dict[Tuple, int] = {}

    def tid_of(template: Tuple) -> int:
        tid = ids.get(template)
        if tid is None:
            tid = ids[template] = len(templates)
            templates.append(template)
            counts.append(0)
        return tid

    def make_tail(head: List[Tuple], proc_name: str, bid: BlockId) -> Tuple[array, int, Tuple]:
        """The ``head`` templates' steps, then the fixed run from ``bid`` on."""
        run, stop = _fixed_run(entries_of[proc_name], bid)
        if stop is None:
            raise ExecutionError(f"{proc_name}: block {bid} starts a loop with no exit")
        steps = array(_STREAM_TYPECODE, [tid_of(template) for template in head])
        for src, succ in run:
            steps.append(tid_of((T_BRANCH, proc_name, src, succ)))
        return steps, len(steps), stop

    def return_tail(site: Tuple, frame: int) -> Tuple[array, int, Tuple]:
        """The return from ``site`` to ``frame``, and a fixed caller's run."""
        caller, caller_bid, resume, resumed = frames[frame]
        head = [(T_RET,) + site + (caller, caller_bid, resume)]
        if resumed[0] != _FIXED:
            return array(_STREAM_TYPECODE, [tid_of(head[0])]), 1, resumed
        head.append((T_BRANCH, caller, caller_bid, resumed[2]))
        return make_tail(head, caller, resumed[2])

    def seal(chunk: array) -> None:
        for tid, n in Counter(chunk).items():
            counts[tid] += n
        chunks.append(chunk)

    cond_k, cycle_k, call_k, return_k = _COND, _CYCLE, _CALL, _RETURN

    stack: List[int] = []
    current = array(_STREAM_TYPECODE)
    extend = current.extend
    room = CHUNK_STEPS
    tail = make_tail([], program.entry, program.procedure(program.entry).entry)

    while True:
        run, n, record = tail
        extend(run)
        room -= n
        if room <= 0:
            full = len(current) - len(current) % CHUNK_STEPS
            for start in range(0, full, CHUNK_STEPS):
                seal(current[start:start + CHUNK_STEPS])
            current = current[full:]
            extend = current.extend
            room = CHUNK_STEPS - len(current)

        kind, choose, a, b, tails, site = record
        if kind == cond_k:
            succ = a if choose() else b
        elif kind == cycle_k:
            continues = choose()
            if continues:
                cycle = tails.get(a)
                if cycle is None:
                    cycle = tails[a] = make_tail([(T_BRANCH,) + site + (a,)], site[0], a)
                extend(cycle[0] * continues)
                room -= cycle[1] * continues
            succ = b
        elif kind == call_k:
            callee = b if choose is None else choose()
            tail = tails.get(callee)
            if tail is None:
                tail = tails[callee] = make_tail(
                    [(T_CALL,) + site + (callee,)], callee, program.procedure(callee).entry
                )
            stack.append(a)
            continue
        elif kind == return_k:
            if not stack:
                current.append(tid_of((T_FINAL,) + site))
                break
            frame = stack.pop()
            tail = tails.get(frame)
            if tail is None:
                tail = tails[frame] = return_tail(site, frame)
            continue
        elif choose is not None:  # INDIRECT
            succ = a[choose()]
        else:
            succ = a[0]
        tail = tails.get(succ)
        if tail is None:
            tail = tails[succ] = make_tail([(T_BRANCH,) + site + (succ,)], site[0], succ)

    if len(current):
        seal(current)
    steps = sum(counts)
    # Tails point at records and records hold their tails: unlink them so
    # the walk's tables are freed now, not by a later cyclic collection.
    for entries in entries_of.values():
        for record in entries.values():
            record[4].clear()
    for *_, resumed in frames:
        resumed[4].clear()

    meta: Dict[str, object] = {"seed": seed}
    fingerprint = None
    if workload is not None:
        meta["workload"] = workload
        meta["scale"] = scale
        meta["meld"] = meld
        if scale is not None:
            fingerprint = trace_fingerprint(workload, scale, seed, meld)
    return DecisionTrace(templates, counts, chunks, steps, meta, fingerprint)


# -- persistence -------------------------------------------------------


def _chunk_bytes(chunk: array) -> bytes:
    if sys.byteorder == "little":
        return chunk.tobytes()
    swapped = array(_STREAM_TYPECODE, chunk)
    swapped.byteswap()
    return swapped.tobytes()


def _digest(templates: List[Tuple], counts: List[int], chunks: Sequence[array]) -> str:
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps([list(t) for t in templates], sort_keys=False).encode("utf-8")
    )
    hasher.update(json.dumps(counts).encode("utf-8"))
    for chunk in chunks:
        hasher.update(_chunk_bytes(chunk))
    return hasher.hexdigest()


def encode_trace(trace: DecisionTrace) -> Dict[str, object]:
    """Encode a trace as a JSON-able payload for the artifact store.

    The payload carries its own SHA-256 digest over templates + stream —
    a second integrity layer under the store's manifest checksum, so a
    payload that decodes as valid JSON but was tampered with (or written
    by a buggy producer) is still rejected as corrupt.
    """
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "fingerprint": trace.fingerprint,
        "meta": trace.meta,
        "steps": trace.steps,
        "templates": [list(t) for t in trace.templates],
        "counts": list(trace.counts),
        "stream": [
            base64.b64encode(_chunk_bytes(chunk)).decode("ascii")
            for chunk in trace.iter_chunks()
        ],
        "digest": _digest(trace.templates, trace.counts, list(trace.iter_chunks())),
    }


def decode_trace(
    payload: object, expect_fingerprint: Optional[str] = None
) -> DecisionTrace:
    """Decode a persisted trace payload, validating schema and digest.

    Raises :class:`TraceDecodeError` with a machine-checkable reason so
    callers can distinguish *stale* (schema/fingerprint drift — silently
    re-capture) from *corrupt* (digest mismatch — quarantine first).
    """
    if not isinstance(payload, dict):
        raise TraceDecodeError("malformed", "payload is not a mapping")
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceDecodeError(
            "stale-schema", f"schema {schema!r} != {TRACE_SCHEMA_VERSION}"
        )
    if expect_fingerprint is not None and payload.get("fingerprint") != expect_fingerprint:
        raise TraceDecodeError(
            "stale-fingerprint",
            f"{payload.get('fingerprint')!r} != {expect_fingerprint!r}",
        )
    try:
        templates = [tuple(t) for t in payload["templates"]]
        counts = [int(c) for c in payload["counts"]]
        steps = int(payload["steps"])
        chunks = []
        for encoded in payload["stream"]:
            chunk = array(_STREAM_TYPECODE)
            chunk.frombytes(base64.b64decode(encoded))
            if sys.byteorder != "little":
                chunk.byteswap()
            chunks.append(chunk)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceDecodeError("malformed", str(exc)) from exc
    if payload.get("digest") != _digest(templates, counts, chunks):
        raise TraceDecodeError("digest-mismatch")
    if sum(len(c) for c in chunks) != steps or sum(counts) != steps:
        raise TraceDecodeError("malformed", "step counts disagree with stream")
    n = len(templates)
    if any(tid < 0 or tid >= n for chunk in chunks for tid in chunk):
        raise TraceDecodeError("malformed", "stream references unknown template")
    return DecisionTrace(
        templates,
        counts,
        chunks,
        steps,
        payload.get("meta") or {},
        payload.get("fingerprint"),
    )


def validate_payload(payload: object, key: Optional[str] = None) -> DecisionTrace:
    """Doctor-facing validation: decode and cross-check against ``key``."""
    trace = decode_trace(payload)
    if key is not None:
        fingerprint = trace.fingerprint
        workload = trace.meta.get("workload")
        if fingerprint and workload is not None:
            if key != trace_key(str(workload), str(fingerprint)):
                raise TraceDecodeError(
                    "stale-fingerprint", f"key {key!r} does not match payload identity"
                )
    return trace


class TraceStore(Protocol):
    """The artifact-store surface the trace cache relies on (duck-typed).

    Matches :class:`repro.runner.store.ArtifactStore` structurally so the
    sim layer stays free of a runner dependency.
    """

    def __contains__(self, key: str) -> bool: ...

    def load(self, key: str) -> object: ...

    def put(self, key: str, payload: Dict[str, object]) -> object: ...

    def quarantine(self, key: str) -> object: ...


def load_or_capture(
    store: Optional[TraceStore],
    program: Program,
    workload: str,
    scale: float,
    seed: int = 0,
    meld: bool = False,
) -> Tuple[DecisionTrace, bool]:
    """Fetch a cached trace, or capture (and cache) a fresh one.

    Returns ``(trace, cache_hit)``.  ``store`` is duck-typed (the
    :class:`TraceStore` surface of :class:`repro.runner.store.
    ArtifactStore`); pass ``None`` to always capture.  ``meld`` says
    whether ``program`` is the melded workload; it is part of the key.

    Every unusable cached entry — stale (``stale-schema``,
    ``stale-fingerprint``) as well as corrupt (``digest-mismatch``,
    ``malformed``) — is quarantined, preserving the payload for
    post-mortem, and transparently re-captured.  Any load failure
    degrades to a capture — the cache is an accelerator, never a
    correctness dependency, so *every* exception on the load path is
    converted into a miss.
    """
    fingerprint = trace_fingerprint(workload, scale, seed, meld)
    key = trace_key(workload, fingerprint)
    if store is not None and key in store:
        try:
            trace = decode_trace(store.load(key), expect_fingerprint=fingerprint)
        except TraceDecodeError:
            # Stale or corrupt, the response is the same: set the entry
            # aside rather than silently overwrite it, then re-capture.
            store.quarantine(key)
        except Exception:
            # The store already quarantines entries failing its own
            # checksum; anything else (I/O, JSON) is treated as a miss.
            try:
                store.quarantine(key)
            except Exception:
                pass
        else:
            return trace, True
    trace = capture_decisions(
        program, seed=seed, workload=workload, scale=scale, meld=meld
    )
    if store is not None:
        store.put(key, encode_trace(trace))
    return trace, False
