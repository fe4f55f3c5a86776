"""The union-find chain set and the unshared searches, kept as references.

:class:`repro.core.ChainSet` tracks each chain's two endpoints and links
in O(1), and the aligners of one registry plan share chain builds
(:class:`repro.core.align.PlanShare`).  This module keeps what they
replaced: the union-find chain set whose ``unlink`` rebuilt both
fragments, a TryN search that runs its own Tarjan SCC and windowing on
it for every variant, and a Greedy that builds its own chains for every
chain order.  Tests require equal answers and equal layouts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg import BlockId, Procedure
from repro.core import GreedyAligner, TryNAligner, block_options
from repro.core.tryn import _SearchBudget


class UnionFindChainSet:
    """Disjoint chains over the blocks of one procedure (union-find)."""

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.entry = proc.entry
        self.succ: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.pred: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.sealed: Set[BlockId] = set()
        self._parent: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}
        self._head: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}
        self._tail: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}

    def _find(self, bid: BlockId) -> BlockId:
        root = bid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[bid] != root:
            self._parent[bid], bid = root, self._parent[bid]
        return root

    def can_link(self, src: BlockId, dst: BlockId) -> bool:
        if src == dst or dst == self.entry:
            return False
        if src in self.sealed:
            return False
        if self.succ[src] is not None or self.pred[dst] is not None:
            return False
        if not self.proc.block(src).kind.alignable:
            return False
        return self._find(src) != self._find(dst)

    def link(self, src: BlockId, dst: BlockId) -> None:
        if not self.can_link(src, dst):
            raise ValueError(f"cannot link {src} -> {dst}")
        self.succ[src] = dst
        self.pred[dst] = src
        src_root, dst_root = self._find(src), self._find(dst)
        head = self._head[src_root]
        tail = self._tail[dst_root]
        self._parent[dst_root] = src_root
        self._head[src_root] = head
        self._tail[src_root] = tail

    def unlink(self, src: BlockId) -> None:
        dst = self.succ[src]
        if dst is None:
            raise ValueError(f"{src} has no layout successor to unlink")
        self.succ[src] = None
        self.pred[dst] = None
        for start in (self._chain_start(src), dst):
            bid: Optional[BlockId] = start
            prev: Optional[BlockId] = None
            while bid is not None:
                self._parent[bid] = start
                prev = bid
                bid = self.succ[bid]
            self._head[start] = start
            self._tail[start] = prev if prev is not None else start

    def _chain_start(self, bid: BlockId) -> BlockId:
        while self.pred[bid] is not None:
            bid = self.pred[bid]
        return bid

    def seal(self, bid: BlockId) -> None:
        if self.succ[bid] is not None:
            raise ValueError(f"cannot seal {bid}: it already has a successor")
        self.sealed.add(bid)

    def unseal(self, bid: BlockId) -> None:
        self.sealed.discard(bid)

    def chain_of(self, bid: BlockId) -> List[BlockId]:
        out = []
        cur: Optional[BlockId] = self._chain_start(bid)
        while cur is not None:
            out.append(cur)
            cur = self.succ[cur]
        return out

    def chains(self) -> List[List[BlockId]]:
        heads = sorted(b for b in self.proc.blocks if self.pred[b] is None)
        return [self.chain_of(h) for h in heads]

    def check(self) -> None:
        seen: Set[BlockId] = set()
        for chain in self.chains():
            for bid in chain:
                assert bid not in seen, f"block {bid} appears in two chains"
                seen.add(bid)
        assert seen == set(self.proc.blocks), "chains do not cover all blocks"
        assert self.pred[self.entry] is None, "entry block acquired a predecessor"


def reference_link_pass(chains, proc: Procedure, profile) -> None:
    """``greedy_link_pass`` with ``min_weight=0``, on public methods only."""
    for (src, dst), _w in profile.sorted_edges(proc, min_weight=0):
        if chains.can_link(src, dst):
            chains.link(src, dst)
    for edge in proc.edges:
        if not proc.block(edge.src).kind.alignable:
            continue
        if edge.kind.value in ("fallthrough", "taken") and chains.can_link(
            edge.src, edge.dst
        ):
            chains.link(edge.src, edge.dst)


class ReferenceGreedy(GreedyAligner):
    """Greedy building its own union-find chains for every chain order."""

    def build_chains(self, proc, profile):
        chains = UnionFindChainSet(proc)
        reference_link_pass(chains, proc, profile)
        return chains


class ReferenceTryN(TryNAligner):
    """TryN with its own Tarjan SCC, windowing and union-find chains."""

    def build_chains(self, proc, profile):
        chains = UnionFindChainSet(proc)
        retreating = proc.cyclic_edge_pairs()
        decided: Set[BlockId] = set()

        edges = profile.sorted_edges(proc, min_weight=self.min_weight)
        index = 0
        while index < len(edges):
            nodes: List[BlockId] = []
            consumed = 0
            while index < len(edges) and consumed < self.window:
                (src, _dst), _w = edges[index]
                index += 1
                if src in decided or src in nodes:
                    continue
                if not proc.block(src).kind.alignable:
                    continue
                nodes.append(src)
                consumed += 1
            if not nodes:
                continue
            assignment = self._search_window(proc, nodes, profile, retreating, chains)
            for src, option in assignment:
                if option.kind == "link":
                    chains.link(src, option.target)
                else:
                    chains.seal(src)
                decided.add(src)

        reference_link_pass(chains, proc, profile)
        return chains

    def _search_window(self, proc, nodes, profile, retreating, chains):
        per_node = [
            block_options(proc, bid, profile, self.model, retreating, chains)
            for bid in nodes
        ]
        suffix = [0.0] * (len(nodes) + 1)
        for i in range(len(nodes) - 1, -1, -1):
            cheapest = min(o.cost for o in per_node[i]) if per_node[i] else 0.0
            suffix[i] = suffix[i + 1] + cheapest

        best_cost = [float("inf")]
        best_assign: List[Optional[list]] = [None]
        current: list = []
        states = [0]

        def dfs(idx: int, acc: float) -> None:
            states[0] += 1
            if states[0] > self.max_states:
                raise _SearchBudget
            if acc + suffix[idx] >= best_cost[0]:
                return
            if idx == len(nodes):
                best_cost[0] = acc
                best_assign[0] = list(current)
                return
            bid = nodes[idx]
            for option in per_node[idx]:
                if option.kind == "link":
                    if not chains.can_link(bid, option.target):
                        continue
                    chains.link(bid, option.target)
                    current.append(option)
                    try:
                        dfs(idx + 1, acc + option.cost)
                    finally:
                        current.pop()
                        chains.unlink(bid)
                else:
                    current.append(option)
                    try:
                        dfs(idx + 1, acc + option.cost)
                    finally:
                        current.pop()

        try:
            dfs(0, 0.0)
        except _SearchBudget:
            pass
        assign = best_assign[0]
        if assign is None:
            out: List[Tuple[BlockId, object]] = []
            for bid in nodes:
                options = block_options(
                    proc, bid, profile, self.model, retreating, chains
                )
                for option in options:
                    if option.kind == "link":
                        if chains.can_link(bid, option.target):
                            chains.link(bid, option.target)
                            out.append((bid, option))
                            break
                    else:
                        out.append((bid, option))
                        break
            for bid, option in out:
                if option.kind == "link":
                    chains.unlink(bid)
            return out
        return list(zip(nodes, assign))
