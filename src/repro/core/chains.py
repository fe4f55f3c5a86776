"""Pettis–Hansen chains: sequences of blocks threaded by fall-through links.

A *chain* is a contiguous run of basic blocks; linking the edge S -> D
makes D the layout fall-through of S, merging D's chain onto S's.  The
structure enforces the three feasibility rules every alignment algorithm
shares:

* a block has at most one layout successor and one layout predecessor;
* linking must not close a cycle (chains are simple paths);
* the procedure entry block can never acquire a predecessor, because the
  entry must remain the first block of the procedure.

A block may also be *sealed*: the Cost and TryN algorithms seal a block
when the cost model prefers ending it with an (possibly appended)
unconditional jump over giving it any fall-through successor — the
"align neither edge" transformation.

Only a chain's two ends matter to feasibility: a link S -> D joins the
chain S ends to the chain D starts, and closes a cycle exactly when
those are one chain.  So the set keeps two endpoint maps — the head of
the chain each tail ends, and the tail of the chain each head starts —
and answers :meth:`ChainSet.can_link` and performs :meth:`ChainSet.link`
in O(1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cfg import BlockId, Procedure


class ChainSet:
    """Disjoint chains over the blocks of one procedure."""

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.entry = proc.entry
        self.succ: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.pred: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.sealed: Set[BlockId] = set()
        #: Blocks whose layout successor alignment may choose.
        self._alignable: Set[BlockId] = {
            b for b, block in proc.blocks.items() if block.kind.alignable
        }
        # Endpoint maps: every block starts as a one-block chain.
        self._head_of: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}
        self._tail_of: Dict[BlockId, BlockId] = dict(self._head_of)

    # ------------------------------------------------------------------
    def can_link(self, src: BlockId, dst: BlockId) -> bool:
        """True if dst may become the layout fall-through of src."""
        if src == dst or dst == self.entry:
            return False
        if src in self.sealed or src not in self._alignable:
            return False
        if self.succ[src] is not None or self.pred[dst] is not None:
            return False
        # src ends a chain and dst starts one: the link closes a cycle
        # exactly when they end and start the same chain.
        return self._head_of[src] != dst

    def link(self, src: BlockId, dst: BlockId) -> None:
        """Make dst the layout fall-through of src (must be linkable)."""
        if not self.can_link(src, dst):
            raise ValueError(f"cannot link {src} -> {dst}")
        self._join(src, dst)

    def _join(self, src: BlockId, dst: BlockId) -> Tuple[BlockId, BlockId]:
        """:meth:`link` for a pair the caller has just seen ``can_link``.

        Returns the joined chain's (head, tail), which :meth:`_split`
        takes to undo this link while it is the latest one standing.
        """
        self.succ[src] = dst
        self.pred[dst] = src
        head = self._head_of.pop(src)
        tail = self._tail_of.pop(dst)
        self._tail_of[head] = tail
        self._head_of[tail] = head
        return head, tail

    def unlink(self, src: BlockId) -> None:
        """Undo a link (used by the TryN backtracking search).

        Splits src's chain after src; walks from src back to the chain's
        head to find the endpoints both halves get.
        """
        if self.succ[src] is None:
            raise ValueError(f"{src} has no layout successor to unlink")
        head = self._chain_start(src)
        self._split(src, head, self._tail_of[head])

    def _split(self, src: BlockId, head: BlockId, tail: BlockId) -> None:
        """Cut the chain ``head``..``tail`` after ``src``, in O(1)."""
        dst = self.succ[src]
        assert dst is not None
        self.succ[src] = None
        self.pred[dst] = None
        self._tail_of[head] = src
        self._head_of[src] = head
        self._tail_of[dst] = tail
        self._head_of[tail] = dst

    def _chain_start(self, bid: BlockId) -> BlockId:
        while True:
            prev = self.pred[bid]
            if prev is None:
                return bid
            bid = prev

    # ------------------------------------------------------------------
    def seal(self, bid: BlockId) -> None:
        """Forbid the block from ever getting a layout successor."""
        if self.succ[bid] is not None:
            raise ValueError(f"cannot seal {bid}: it already has a successor")
        self.sealed.add(bid)

    def unseal(self, bid: BlockId) -> None:
        """Allow a previously sealed block to take a successor again."""
        self.sealed.discard(bid)

    # ------------------------------------------------------------------
    def chain_of(self, bid: BlockId) -> List[BlockId]:
        """The full chain containing ``bid``, head to tail."""
        out = []
        cur: Optional[BlockId] = self._chain_start(bid)
        while cur is not None:
            out.append(cur)
            cur = self.succ[cur]
        return out

    def chains(self) -> List[List[BlockId]]:
        """All chains, each listed head to tail, in head-id order."""
        heads = [b for b in self.proc.blocks if self.pred[b] is None]
        heads.sort()
        return [self.chain_of(h) for h in heads]

    def check(self) -> None:
        """Verify internal consistency (used by property tests)."""
        seen: Set[BlockId] = set()
        chains = self.chains()
        for chain in chains:
            for bid in chain:
                if bid in seen:
                    raise AssertionError(f"block {bid} appears in two chains")
                seen.add(bid)
        if seen != set(self.proc.blocks):
            raise AssertionError("chains do not cover all blocks")
        if self.pred[self.entry] is not None:
            raise AssertionError("entry block acquired a predecessor")
        heads = {chain[-1]: chain[0] for chain in chains}
        tails = {chain[0]: chain[-1] for chain in chains}
        if self._head_of != heads or self._tail_of != tails:
            raise AssertionError("chain endpoint maps disagree with the chains")
