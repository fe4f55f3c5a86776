"""Procedures: directed control-flow graphs of basic blocks."""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .blocks import OUT_EDGE_KINDS, BasicBlock, BlockId, Edge, EdgeKind, TerminatorKind

#: One coded finding of an invariant check: ``(code, block, message)``.
#: The code is a ``repro lint`` RL code; the block is ``None`` when the
#: finding concerns the whole procedure.
Finding = Tuple[str, Optional[BlockId], str]


class CFGError(ValueError):
    """Raised when a procedure's control-flow graph is malformed."""


def cite_finding(procedure: str, finding: Finding) -> str:
    """``RLxxx proc:block: message``, the form errors and stage checks cite."""
    code, block, message = finding
    where = procedure if block is None else f"{procedure}:{block}"
    return f"{code} {where}: {message}"


class Procedure:
    """A named procedure represented as a control-flow graph.

    Blocks are kept in *original layout order*: the order of the ``blocks``
    argument is the order in which the compiler emitted them, which defines
    the initial placement that branch alignment rewrites.  The first block
    is the procedure entry and always remains first after alignment.
    """

    def __init__(self, name: str, blocks: Iterable[BasicBlock], edges: Iterable[Edge]):
        self.name = name
        self._order: List[BlockId] = []
        self.blocks: Dict[BlockId, BasicBlock] = {}
        for block in blocks:
            self.blocks.setdefault(block.bid, block)
            self._order.append(block.bid)
        self.edges: List[Edge] = list(edges)
        self._out: Dict[BlockId, List[Edge]] = {bid: [] for bid in self.blocks}
        self._in: Dict[BlockId, List[Edge]] = {bid: [] for bid in self.blocks}
        for edge in self.edges:
            self._out.setdefault(edge.src, []).append(edge)
            self._in.setdefault(edge.dst, []).append(edge)
        self.validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BlockId:
        """The entry block id (always laid out first)."""
        return self._order[0]

    @property
    def original_order(self) -> Tuple[BlockId, ...]:
        """Block ids in the original (pre-alignment) layout order."""
        return tuple(self._order)

    def block(self, bid: BlockId) -> BasicBlock:
        """The basic block with id ``bid``."""
        return self.blocks[bid]

    def out_edges(self, bid: BlockId) -> List[Edge]:
        """All out-edges of block ``bid``, in declaration order."""
        return self._out[bid]

    def in_edges(self, bid: BlockId) -> List[Edge]:
        """All in-edges of block ``bid``."""
        return self._in[bid]

    def taken_edge(self, bid: BlockId) -> Optional[Edge]:
        """The taken out-edge of ``bid``, if any."""
        for edge in self._out[bid]:
            if edge.kind is EdgeKind.TAKEN:
                return edge
        return None

    def fallthrough_edge(self, bid: BlockId) -> Optional[Edge]:
        """The fall-through out-edge of ``bid``, if any."""
        for edge in self._out[bid]:
            if edge.kind is EdgeKind.FALLTHROUGH:
                return edge
        return None

    def successors(self, bid: BlockId) -> List[BlockId]:
        """Successor block ids of ``bid`` (one per out-edge)."""
        return [e.dst for e in self._out[bid]]

    def predecessors(self, bid: BlockId) -> List[BlockId]:
        """Predecessor block ids of ``bid``."""
        return [e.src for e in self._in[bid]]

    def __iter__(self) -> Iterator[BasicBlock]:
        for bid in self._order:
            yield self.blocks[bid]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self.blocks

    def validate(self) -> None:
        """Raise :class:`CFGError` on the first :func:`procedure_findings`."""
        for finding in procedure_findings(self):
            raise CFGError(cite_finding(self.name, finding))

    # ------------------------------------------------------------------
    # Analyses used by the alignment cost models
    # ------------------------------------------------------------------
    def reachable_blocks(self) -> Set[BlockId]:
        """Blocks reachable from the entry via any edge."""
        seen: Set[BlockId] = set()
        stack = [self.entry]
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            stack.extend(self.successors(bid))
        return seen

    def retreating_edges(self) -> Set[Tuple[BlockId, BlockId]]:
        """(src, dst) pairs of edges that close a cycle in a DFS from entry.

        Used by the BT/FNT cost model to approximate which taken branches
        will end up *backward* in the final layout: an edge back to a loop
        header is laid out backward by every reasonable chain ordering.
        """
        retreating: Set[Tuple[BlockId, BlockId]] = set()
        color: Dict[BlockId, int] = {}
        # Iterative DFS with explicit grey/black colouring.
        stack: List[Tuple[BlockId, int]] = [(self.entry, 0)]
        succs: Dict[BlockId, List[BlockId]] = {
            bid: self.successors(bid) for bid in self.blocks
        }
        while stack:
            bid, idx = stack.pop()
            if idx == 0:
                color[bid] = 1  # grey
            children = succs[bid]
            advanced = False
            while idx < len(children):
                child = children[idx]
                idx += 1
                state = color.get(child, 0)
                if state == 1:
                    retreating.add((bid, child))
                elif state == 0:
                    stack.append((bid, idx))
                    stack.append((child, 0))
                    advanced = True
                    break
            if not advanced and idx >= len(children):
                color[bid] = 2  # black
        return retreating

    def cyclic_edge_pairs(self) -> Set[Tuple[BlockId, BlockId]]:
        """(src, dst) pairs of edges whose endpoints share a CFG cycle.

        Both endpoints lying in one strongly connected component means the
        edge participates in a loop, so *some* chain layout can make it a
        backward branch (by wrapping the loop).  The BT/FNT and LIKELY
        alignment cost models use this as the "could be laid out backward"
        hint — it correctly covers loop rotations, which plain
        DFS-retreating edges miss (a rotated loop header's taken edge to
        the body is a tree edge, yet ends up backward after alignment).
        """
        component = self._tarjan_scc()
        return {
            (e.src, e.dst)
            for e in self.edges
            if component[e.src] == component[e.dst]
        }

    def _tarjan_scc(self) -> Dict[BlockId, int]:
        """Iterative Tarjan SCC; returns block -> component id.

        A self-loop edge places its block in a "cyclic" component by
        itself, which the caller detects via the edge-pair test.
        """
        index: Dict[BlockId, int] = {}
        lowlink: Dict[BlockId, int] = {}
        on_stack: Set[BlockId] = set()
        stack: List[BlockId] = []
        component: Dict[BlockId, int] = {}
        counter = [0]
        comp_counter = [0]
        succs = {bid: self.successors(bid) for bid in self.blocks}

        for root in self._order:
            if root in index:
                continue
            work: List[Tuple[BlockId, int]] = [(root, 0)]
            while work:
                bid, child_idx = work.pop()
                if child_idx == 0:
                    index[bid] = lowlink[bid] = counter[0]
                    counter[0] += 1
                    stack.append(bid)
                    on_stack.add(bid)
                recurse = False
                children = succs[bid]
                while child_idx < len(children):
                    child = children[child_idx]
                    child_idx += 1
                    if child not in index:
                        work.append((bid, child_idx))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[bid] = min(lowlink[bid], index[child])
                if recurse:
                    continue
                if lowlink[bid] == index[bid]:
                    while True:
                        node = stack.pop()
                        on_stack.discard(node)
                        component[node] = comp_counter[0]
                        if node == bid:
                            break
                    comp_counter[0] += 1
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[bid])
        return component

    def instruction_count(self) -> int:
        """Total static instruction count of the procedure."""
        return sum(block.size for block in self.blocks.values())

    def conditional_sites(self) -> List[BlockId]:
        """Ids of blocks ending in conditional branches."""
        return [b.bid for b in self if b.kind is TerminatorKind.COND]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Procedure({self.name!r}, {len(self)} blocks, {len(self.edges)} edges)"


_BY_VALUE = attrgetter("value")


def procedure_findings(proc: Procedure) -> Iterator[Finding]:
    """Every way ``proc`` breaks CFG well-formedness, as coded findings.

    * RL001: each block id is ordered once and tabled under its own id;
    * RL002: the procedure has an entry block;
    * RL003: each block's out-edge kinds are its terminator's
      (:data:`~repro.cfg.blocks.OUT_EDGE_KINDS`), a conditional's two
      targets differ, no block falls through to itself, and every
      fall-through edge joins neighbours of the original order;
    * RL004: every edge endpoint is a block.

    Reads ``blocks``, ``edges``, ``original_order`` and the out-edge
    index, and never assumes a finding absent, so it also judges a
    procedure assembled behind the constructor's back.  Construction
    raises on the first finding; ``repro lint``'s CFG passes render
    them all.
    """
    blocks = proc.blocks
    order = proc.original_order
    position: Dict[BlockId, int] = {}
    for index, bid in enumerate(order):
        position.setdefault(bid, index)
    if len(position) != len(order) or position.keys() != blocks.keys():
        for bid in sorted(position):
            count = order.count(bid)
            if count > 1:
                yield "RL001", bid, f"block {bid} appears {count} times in the layout order"
            if bid not in blocks:
                yield "RL001", bid, f"ordered block {bid} missing from the block table"
        for bid in sorted(blocks.keys() - position.keys()):
            yield "RL001", bid, f"block {bid} present in the block table but never ordered"
    for bid, block in blocks.items():
        if block.bid != bid:
            yield "RL001", bid, f"block table maps id {bid} to a block labelled {block.bid}"

    if not order:
        yield "RL002", None, "procedure has no blocks"
    elif order[0] not in blocks:
        yield "RL002", order[0], f"entry block {order[0]} missing from the block table"

    for bid, block in blocks.items():
        out = proc.out_edges(bid)
        kinds = tuple(sorted((edge.kind for edge in out), key=_BY_VALUE))
        expected = OUT_EDGE_KINDS[block.kind]
        if block.kind is TerminatorKind.INDIRECT:
            expected *= len(kinds) or 1  # one or more
        if kinds != expected:
            yield "RL003", bid, (
                f"{block.kind.value} block has out-edge kinds "
                f"[{', '.join(kind.value for kind in kinds)}]"
            )
            continue
        if block.kind is TerminatorKind.COND and out[0].dst == out[1].dst:
            yield "RL003", bid, "conditional branch has identical taken and fall-through targets"
        here = position.get(bid)
        for edge in out:
            if edge.kind is not EdgeKind.FALLTHROUGH:
                continue
            if edge.dst == bid:
                yield "RL003", bid, "block falls through to itself"
            elif here is not None and edge.dst in blocks and position.get(edge.dst) != here + 1:
                yield "RL003", bid, (
                    f"fall-through edge {edge.src}->{edge.dst} is not adjacent "
                    f"in the original layout"
                )

    for edge in proc.edges:
        if edge.src not in blocks:
            yield "RL004", edge.src, f"edge {edge.src}->{edge.dst} has unknown source block"
        if edge.dst not in blocks:
            yield "RL004", edge.src, f"edge {edge.src}->{edge.dst} targets unknown block {edge.dst}"
