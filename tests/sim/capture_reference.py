"""The step-at-a-time decision capture and return-stack walk, kept as references.

:func:`repro.sim.decisions.capture_decisions` handles one decision per
iteration and emits the fixed-successor steps after it, and the rest of
a decision-free loop activation, in one ``array.extend``.
:meth:`repro.sim.decisions.DecisionTrace.ras_stats` takes its tallies
from the template counts when the executed call graph is acyclic and
shallow enough.  This module keeps what they replaced: the walk that
spends one iteration on every dynamic step, and the return stack
driven step by step.  Tests require equal templates, counts, chunks,
``encode_trace`` payloads, behaviour state and return-stack tallies.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.cfg import BlockId, Program, TerminatorKind
from repro.sim.decisions import (
    _STREAM_TYPECODE,
    CHUNK_STEPS,
    T_BRANCH,
    T_CALL,
    T_FINAL,
    T_RET,
    DecisionTrace,
    trace_fingerprint,
)
from repro.sim.executor import check_behaviours
from repro.sim.predictors.ras import ReturnStack


def reference_capture_decisions(
    program: Program,
    seed: int = 0,
    workload: Optional[str] = None,
    scale: Optional[float] = None,
    meld: bool = False,
) -> DecisionTrace:
    """Capture the decision stream one dynamic step per loop iteration."""
    program.reset_behaviors(seed)
    check_behaviours(program)

    # Pre-resolve per-block walk records.
    # Each record ends with the block's template-id tables — successor ->
    # id, one callee -> id table per call, return frame -> id — so a
    # repeated step looks its id up without building a template tuple.
    walk: Dict[str, Dict[BlockId, Tuple]] = {}
    entries: Dict[str, BlockId] = {}
    for proc in program:
        entries[proc.name] = proc.entry
        records: Dict[BlockId, Tuple] = {}
        for block in proc:
            ft = proc.fallthrough_edge(block.bid)
            taken = proc.taken_edge(block.bid)
            indirect_dsts: List[BlockId] = []
            if block.kind is TerminatorKind.INDIRECT:
                indirect_dsts = [e.dst for e in proc.out_edges(block.bid)]
            records[block.bid] = (
                block.kind,
                block.behavior,
                [(c.callee, c.chooser) for c in block.calls],
                len(block.calls),
                ft.dst if ft is not None else None,
                taken.dst if taken is not None else None,
                indirect_dsts,
                {},
                [{} for _ in block.calls],
                {},
            )
        walk[proc.name] = records

    templates: List[Tuple] = []
    counts: List[int] = []
    chunks: List[array] = []

    def new_template(template: Tuple) -> int:
        templates.append(template)
        counts.append(0)
        return len(templates) - 1

    def seal(chunk: array) -> None:
        for tid, n in Counter(chunk).items():
            counts[tid] += n
        chunks.append(chunk)

    cond_kind = TerminatorKind.COND
    ft_kind = TerminatorKind.FALLTHROUGH
    uncond_kind = TerminatorKind.UNCOND
    return_kind = TerminatorKind.RETURN

    stack: List[Tuple[str, BlockId, int]] = []
    proc_name = program.entry
    records = walk[proc_name]
    bid = entries[proc_name]
    call_idx = 0
    current = array(_STREAM_TYPECODE)
    append = current.append
    room = CHUNK_STEPS

    while True:
        (kind, behavior, calls, ncalls, ft_dst, taken_dst, indirect_dsts,
         branch_ids, call_ids, ret_ids) = records[bid]

        if call_idx < ncalls:
            callee, chooser = calls[call_idx]
            if chooser is not None:
                callee = chooser.choose()
            tid = call_ids[call_idx].get(callee)
            if tid is None:
                tid = call_ids[call_idx][callee] = new_template(
                    (T_CALL, proc_name, bid, call_idx, callee)
                )
            stack.append((proc_name, bid, call_idx + 1))
            proc_name = callee
            records = walk[proc_name]
            bid = entries[proc_name]
            call_idx = 0
        elif kind is return_kind:
            if not stack:
                append(new_template((T_FINAL, proc_name, bid)))
                break
            frame = stack.pop()
            tid = ret_ids.get(frame)
            if tid is None:
                tid = ret_ids[frame] = new_template((T_RET, proc_name, bid) + frame)
            proc_name, bid, call_idx = frame
            records = walk[proc_name]
        else:
            if kind is cond_kind:
                succ = taken_dst if behavior.choose() else ft_dst
            elif kind is ft_kind:
                succ = ft_dst
            elif kind is uncond_kind:
                succ = taken_dst
            elif behavior is not None:  # INDIRECT
                succ = indirect_dsts[behavior.choose()]
            else:
                succ = indirect_dsts[0]
            tid = branch_ids.get(succ)
            if tid is None:
                tid = branch_ids[succ] = new_template((T_BRANCH, proc_name, bid, succ))
            bid = succ
            call_idx = 0

        append(tid)
        room -= 1
        if not room:
            seal(current)
            current = array(_STREAM_TYPECODE)
            append = current.append
            room = CHUNK_STEPS

    if len(current):
        seal(current)
    steps = sum(counts)

    meta: Dict[str, object] = {"seed": seed}
    fingerprint = None
    if workload is not None:
        meta["workload"] = workload
        meta["scale"] = scale
        meta["meld"] = meld
        if scale is not None:
            fingerprint = trace_fingerprint(workload, scale, seed, meld)
    return DecisionTrace(templates, counts, chunks, steps, meta, fingerprint)


def reference_ras_stats(trace: DecisionTrace, depth: int) -> Tuple[int, int, int]:
    """(pushes, pops, correct) of a ``depth``-entry return stack, step by step.

    Call sites get small ids (+1, so the final return's sentinel target 0
    never matches a pushed value), exactly as the parent's walk did.
    """
    site_ids: Dict[Tuple[str, BlockId, int], int] = {}
    for template in trace.templates:
        if template[0] == T_CALL:
            site_ids.setdefault((template[1], template[2], template[3]), len(site_ids))
    ras = ReturnStack(depth)
    for tid in trace.iter_steps():
        template = trace.templates[tid]
        kind = template[0]
        if kind == T_CALL:
            ras.push(site_ids[(template[1], template[2], template[3])] + 1)
        elif kind == T_RET:
            ras.pop_predict(site_ids[(template[3], template[4], template[5] - 1)] + 1)
        elif kind == T_FINAL:
            ras.pop_predict(0)
    return ras.pushes, ras.pops, ras.correct
