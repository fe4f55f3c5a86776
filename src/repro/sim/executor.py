"""The trace-driven executor: runs a linked binary, emitting branch events.

This plays the role of ATOM in the paper: it "instruments" the program and
streams every break in control flow to the attached listeners (branch
architecture simulators, trace statistics, profilers) without ever
materialising the trace.  Because block behaviours are expressed in terms
of original CFG edge roles, executing the original and an aligned binary
with the same seed replays the identical dynamic basic-block sequence —
only the layout-dependent properties differ: which conditionals are taken,
where inserted/removed unconditional branches execute, and every address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cfg import BlockId, Program, TerminatorKind
from ..isa.encoder import INSTRUCTION_BYTES, LinkedProgram
from . import trace as tr


class ExecutionError(RuntimeError):
    """Raised when the executor cannot make progress."""


@dataclass
class ExecutionResult:
    """Summary of one execution run."""

    instructions: int
    events: int
    blocks: int

    @property
    def percent_breaks(self) -> float:
        if not self.instructions:
            return 0.0
        return 100.0 * self.events / self.instructions


class _Node:
    """Pre-resolved per-block execution record (hot-loop friendly)."""

    __slots__ = (
        "bid",
        "kind",
        "size",
        "start",
        "term_addr",
        "jump_addr",
        "branch_removed",
        "behavior",
        "calls",
        "ft_dst",
        "taken_dst",
        "taken_target",
        "indirect_dsts",
    )

    def __init__(self) -> None:
        self.calls: List[Tuple[int, Optional[str], object]] = []
        self.indirect_dsts: List[BlockId] = []


def check_behaviours(program: Program) -> None:
    """Raise :class:`ExecutionError` for a block that cannot run.

    A conditional needs a behaviour, and so does an indirect jump with
    more than one target.  Execute, decision capture and replay binding
    call this before their first step, so they refuse the same programs
    with the same error, whatever blocks a run would reach; replay does
    so even through a trace captured before a behaviour was lost.
    """
    cond, indirect = TerminatorKind.COND, TerminatorKind.INDIRECT
    for proc in program:
        for block in proc.blocks.values():
            if block.behavior is not None:
                continue
            if block.kind is cond:
                raise ExecutionError(
                    f"{proc.name}: conditional block {block.bid} needs a behaviour"
                )
            if block.kind is indirect and len(proc.out_edges(block.bid)) > 1:
                raise ExecutionError(
                    f"{proc.name}: indirect block {block.bid} with multiple "
                    f"targets needs a behaviour"
                )


def _compile_nodes(linked: LinkedProgram) -> Dict[str, Dict[BlockId, _Node]]:
    """Flatten CFG + layout + addresses into per-block execution records."""
    check_behaviours(linked.program)
    nodes: Dict[str, Dict[BlockId, _Node]] = {}
    for proc in linked.program:
        proc_nodes: Dict[BlockId, _Node] = {}
        for block in proc:
            lb = linked.block(proc.name, block.bid)
            node = _Node()
            node.bid = block.bid
            node.kind = block.kind
            node.size = lb.size
            node.start = lb.start
            node.term_addr = lb.term_address
            node.jump_addr = lb.jump_address
            node.branch_removed = lb.placement.branch_removed
            node.behavior = block.behavior
            node.calls = [
                (lb.call_address(c.offset), c.callee, c.chooser) for c in block.calls
            ]
            ft = proc.fallthrough_edge(block.bid)
            node.ft_dst = ft.dst if ft is not None else None
            taken = proc.taken_edge(block.bid)
            node.taken_dst = taken.dst if taken is not None else None
            node.taken_target = lb.placement.taken_target
            if block.kind is TerminatorKind.INDIRECT:
                node.indirect_dsts = [e.dst for e in proc.out_edges(block.bid)]
            proc_nodes[block.bid] = node
        nodes[proc.name] = proc_nodes
    return nodes


def execute(
    linked: LinkedProgram,
    listeners: Sequence[object] = (),
    block_listeners: Sequence[object] = (),
    profile_hook: Optional[Callable[[str, BlockId, BlockId], None]] = None,
    block_hook: Optional[Callable[[str, BlockId], None]] = None,
    seed: int = 0,
    max_events: Optional[int] = None,
) -> ExecutionResult:
    """Run a linked program from its entry procedure until it returns.

    Args:
        linked: The binary image to execute.
        listeners: Objects with ``on_event(event_tuple)`` — predictors,
            statistics, recorders.  Each receives every event, in order.
        block_listeners: Objects with ``on_block(start, size)`` — used by
            the Alpha I-cache model.
        profile_hook: Called as ``hook(proc_name, src_bid, dst_bid)`` for
            every intra-procedural edge traversal (ATOM-style profiling).
        block_hook: Called as ``hook(proc_name, bid)`` for every block
            execution, in order — the layout-independent block-visit
            sequence the differential oracle compares (addresses are
            ambiguous for zero-size blocks; ids are not).
        seed: Behaviour seed; every behaviour is reset to it before the
            run, so identical seeds replay identical inputs.
        max_events: Optional safety cap; execution stops cleanly once this
            many events have been emitted.

    Returns:
        An :class:`ExecutionResult` with dynamic instruction/event counts.
    """
    program = linked.program
    program.reset_behaviors(seed)
    nodes = _compile_nodes(linked)
    entry_addr = {name: linked.entry_address(name) for name in program.order}
    emit = [listener.on_event for listener in listeners]
    on_block = [listener.on_block for listener in block_listeners]

    instructions = 0
    events = 0
    blocks_executed = 0
    stack: List[Tuple[str, _Node, int]] = []

    proc_name = program.entry
    proc_nodes = nodes[proc_name]
    node = proc_nodes[program.procedure(proc_name).entry]
    call_idx = 0
    fresh = True

    cond_k, uncond_k, indirect_k = tr.COND, tr.UNCOND, tr.INDIRECT
    call_k, icall_k, ret_k = tr.CALL, tr.ICALL, tr.RET
    step = INSTRUCTION_BYTES

    while True:
        if fresh:
            instructions += node.size
            blocks_executed += 1
            if on_block:
                for cb in on_block:
                    cb(node.start, node.size)
            if block_hook is not None:
                block_hook(proc_name, node.bid)
            fresh = False

        if call_idx < len(node.calls):
            site, callee, chooser = node.calls[call_idx]
            if chooser is not None:
                callee = chooser.choose()
                kind = icall_k
            else:
                kind = call_k
            target = entry_addr[callee]
            event = (kind, site, target, True)
            for cb in emit:
                cb(event)
            events += 1
            stack.append((proc_name, node, call_idx + 1))
            proc_name = callee
            proc_nodes = nodes[proc_name]
            node = proc_nodes[program.procedure(proc_name).entry]
            call_idx = 0
            fresh = True
            if max_events is not None and events >= max_events:
                break
            continue

        kind = node.kind
        if kind is TerminatorKind.COND:
            succ = node.taken_dst if node.behavior.choose() else node.ft_dst
            if profile_hook is not None:
                profile_hook(proc_name, node.bid, succ)
            site = node.term_addr
            if succ == node.taken_target:
                event = (cond_k, site, proc_nodes[succ].start, True)
                for cb in emit:
                    cb(event)
                events += 1
            else:
                event = (cond_k, site, site + step, False)
                for cb in emit:
                    cb(event)
                events += 1
                if node.jump_addr is not None:
                    event = (uncond_k, node.jump_addr, proc_nodes[succ].start, True)
                    for cb in emit:
                        cb(event)
                    events += 1
            node = proc_nodes[succ]
            call_idx = 0
            fresh = True
        elif kind is TerminatorKind.FALLTHROUGH:
            succ = node.ft_dst
            if profile_hook is not None:
                profile_hook(proc_name, node.bid, succ)
            if node.jump_addr is not None:
                event = (uncond_k, node.jump_addr, proc_nodes[succ].start, True)
                for cb in emit:
                    cb(event)
                events += 1
            node = proc_nodes[succ]
            call_idx = 0
            fresh = True
        elif kind is TerminatorKind.UNCOND:
            succ = node.taken_dst
            if profile_hook is not None:
                profile_hook(proc_name, node.bid, succ)
            if not node.branch_removed:
                event = (uncond_k, node.term_addr, proc_nodes[succ].start, True)
                for cb in emit:
                    cb(event)
                events += 1
            node = proc_nodes[succ]
            call_idx = 0
            fresh = True
        elif kind is TerminatorKind.INDIRECT:
            if node.behavior is not None:
                succ = node.indirect_dsts[node.behavior.choose()]
            else:
                succ = node.indirect_dsts[0]
            if profile_hook is not None:
                profile_hook(proc_name, node.bid, succ)
            event = (indirect_k, node.term_addr, proc_nodes[succ].start, True)
            for cb in emit:
                cb(event)
            events += 1
            node = proc_nodes[succ]
            call_idx = 0
            fresh = True
        else:  # RETURN
            if stack:
                ret_proc, ret_node, ret_idx = stack.pop()
                ret_site = ret_node.calls[ret_idx - 1][0]
                event = (ret_k, node.term_addr, ret_site + step, True)
                for cb in emit:
                    cb(event)
                events += 1
                proc_name = ret_proc
                proc_nodes = nodes[proc_name]
                node = ret_node
                call_idx = ret_idx
                fresh = False
            else:
                event = (ret_k, node.term_addr, 0, True)
                for cb in emit:
                    cb(event)
                events += 1
                break

        if max_events is not None and events >= max_events:
            break

    return ExecutionResult(instructions=instructions, events=events, blocks=blocks_executed)
