"""The gshare loop and the step binding that replay replaced, kept as references.

:func:`repro.sim.replay._score_gshare` scores a run of one template by
its first step and enters a capped loop only for the rest, and reads a
per-template index key and taken bit.  :func:`repro.sim.replay.
compile_steps` reads only the blocks a trace's templates name, straight
from ``LinkedProgram.blocks`` and the CFG.  This module keeps what they
replaced: the step-at-a-time gshare loop over packed template codes, and
the binding through :func:`repro.sim.executor._compile_nodes`, which
builds execute's record for every block of the program.  Tests require
equal counters, history and tallies, and equal steps, on the images
:func:`images` links: the original layout and every registry layout.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cfg import Program, TerminatorKind
from repro.isa.encoder import INSTRUCTION_BYTES, LinkedProgram, link, link_identity
from repro.oracle import alignment_layouts
from repro.sim import trace as tr
from repro.sim.decisions import T_BRANCH, T_CALL, T_RET, DecisionTrace, capture_decisions
from repro.sim.executor import _compile_nodes
from repro.sim.predictors.pht import CorrelationPHT
from repro.sim.replay import _book, _Layout, _Slices, _Step
from repro.workloads import generate_benchmark


def reference_score_gshare(sim: CorrelationPHT, layout: _Layout, slices: _Slices) -> None:
    """gshare's inlined update, run over the conditional steps only.

    A run of one template longer than ``history_bits + 3`` steps is cut
    there: by then the history holds only that outcome and the one
    counter it indexes is saturated, so every further step predicts
    correctly and changes nothing.
    """
    codes = [0] * len(layout.compiled)
    for tid, step in enumerate(layout.compiled):
        if slices.cond[tid]:
            _, site, _, taken = step.events[0]
            codes[tid] = (site >> 2) << 1 | taken
    table = sim.table
    counters = table.counters
    mask = table.mask
    history = sim.history
    history_mask = sim.history_mask
    cap = sim.history_bits + 3
    mis_t = mis_n = 0
    for code, n in zip(map(codes.__getitem__, slices.cond_tids), slices.cond_lengths):
        if n > cap:
            n = cap
        key = code >> 1
        if code & 1:
            while n:
                n -= 1
                index = (key ^ history) & mask
                value = counters[index]
                if value < 3:
                    counters[index] = value + 1
                    if value < 2:
                        mis_t += 1
                history = ((history << 1) | 1) & history_mask
        else:
            while n:
                n -= 1
                index = (key ^ history) & mask
                value = counters[index]
                if value > 0:
                    counters[index] = value - 1
                    if value > 1:
                        mis_n += 1
                history = (history << 1) & history_mask
    sim.history = history
    _book(sim, layout.agg, layout.trace, mis_t, mis_n)


def reference_compile_steps(linked: LinkedProgram, trace: DecisionTrace) -> List[_Step]:
    """Bind every step template to ``linked``'s addresses and senses."""
    program = linked.program
    nodes = _compile_nodes(linked)
    entry_addr = {name: linked.entry_address(name) for name in program.order}
    entries = {name: program.procedure(name).entry for name in program.order}
    step = INSTRUCTION_BYTES
    cond_k, uncond_k, indirect_k = tr.COND, tr.UNCOND, tr.INDIRECT
    call_k, icall_k, ret_k = tr.CALL, tr.ICALL, tr.RET

    compiled: List[_Step] = []
    for template in trace.templates:
        kind = template[0]
        if kind == T_BRANCH:
            _, proc, bid, succ = template
            node = nodes[proc][bid]
            dst = nodes[proc][succ]
            if node.kind is TerminatorKind.COND:
                site = node.term_addr
                if succ == node.taken_target:
                    events: Tuple = ((cond_k, site, dst.start, True),)
                elif node.jump_addr is not None:
                    events = (
                        (cond_k, site, site + step, False),
                        (uncond_k, node.jump_addr, dst.start, True),
                    )
                else:
                    events = ((cond_k, site, site + step, False),)
            elif node.kind is TerminatorKind.FALLTHROUGH:
                if node.jump_addr is not None:
                    events = ((uncond_k, node.jump_addr, dst.start, True),)
                else:
                    events = ()
            elif node.kind is TerminatorKind.UNCOND:
                if node.branch_removed:
                    events = ()
                else:
                    events = ((uncond_k, node.term_addr, dst.start, True),)
            else:  # INDIRECT
                events = ((indirect_k, node.term_addr, dst.start, True),)
            compiled.append(
                _Step(events, (proc, succ, dst.start, dst.size), (proc, bid, succ))
            )
        elif kind == T_CALL:
            _, proc, bid, call_idx, callee = template
            site, _static_callee, chooser = nodes[proc][bid].calls[call_idx]
            event_kind = icall_k if chooser is not None else call_k
            events = ((event_kind, site, entry_addr[callee], True),)
            entry_bid = entries[callee]
            entry_node = nodes[callee][entry_bid]
            compiled.append(
                _Step(events, (callee, entry_bid, entry_node.start, entry_node.size), None)
            )
        elif kind == T_RET:
            _, proc, bid, caller_proc, caller_bid, resume_idx = template
            site = nodes[proc][bid].term_addr
            ret_site = nodes[caller_proc][caller_bid].calls[resume_idx - 1][0]
            events = ((ret_k, site, ret_site + step, True),)
            compiled.append(_Step(events, None, None))
        else:  # T_FINAL
            _, proc, bid = template
            events = ((ret_k, nodes[proc][bid].term_addr, 0, True),)
            compiled.append(_Step(events, None, None))
    return compiled


def step_fields(step: _Step) -> tuple:
    """Everything a bound step carries, for equality."""
    return (
        step.events, step.enter_proc, step.enter_bid, step.enter_start,
        step.enter_size, step.edge,
    )


def images(program: Program, trace: DecisionTrace) -> List[LinkedProgram]:
    """The original image and one per layout of the aligner registry."""
    profile = trace.edge_profile(program)
    layouts = alignment_layouts(program, profile).values()
    return [link_identity(program)] + [link(layout) for layout in layouts]


def suite_images(
    name: str, seed: int, scale: float = 0.1
) -> Tuple[DecisionTrace, List[LinkedProgram]]:
    """A suite program's trace and every registry image."""
    program = generate_benchmark(name, scale)
    trace = capture_decisions(program, seed=seed)
    return trace, images(program, trace)
