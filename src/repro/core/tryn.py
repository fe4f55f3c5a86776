"""The Try15 branch alignment heuristic (section 4 of the paper).

Exhaustive search over all block alignments is infeasible for procedures
with hundreds of blocks, so the paper "select[s] the 15 most frequently
executed edges and attempt[s] all possible alignments for these nodes.  We
then select the next 15 edges, and so on."  Per node the possibilities are
the same as the Cost algorithm's: each successor of a conditional tried as
the fall-through, or neither (inserting an unconditional jump); single-exit
blocks tried as fall-through or jump-terminated.

The combinatorial search is a depth-first branch-and-bound over the window
nodes: configurations are explored cheapest-first, tentative chain links
enforce structural feasibility (one fall-through predecessor per block, no
chain cycles), and a suffix lower bound prunes hopeless prefixes.  A state
cap keeps the worst case bounded; because options are tried cheapest-first
the first completed assignment is exactly the greedy solution, so the cap
degrades gracefully.  The paper notes it "only examined edges that were
executed more than once", the default ``min_weight`` here.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..cfg import BlockId, Procedure
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet
from .cost import AlignmentOption, block_options
from .costmodel import ArchModel


class _SearchBudget(Exception):
    """Raised internally when the state cap is exhausted."""


class TryNAligner(Aligner):
    """Windowed exhaustive alignment search ("Try15" with window=15)."""

    def __init__(
        self,
        model: ArchModel,
        window: int = 15,
        min_weight: int = 2,
        max_states: int = 100_000,
        chain_order: str = "weight",
        refine_model: Optional[ArchModel] = None,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.model = model
        self.window = window
        self.min_weight = min_weight
        self.max_states = max_states
        self.chain_order = chain_order
        self.refine_model = refine_model
        self.name = f"try{window}"

    @classmethod
    def for_architecture(
        cls,
        arch: str,
        window: int = 15,
        min_weight: int = 2,
        max_states: int = 100_000,
    ) -> "TryNAligner":
        """The paper-informed TryN configuration for one architecture.

        Most architectures search with their own cost model.  BT/FNT is
        the exception: chain formation cannot know final branch directions
        ("it is not known where the taken branch will be located in the
        final procedure until the chains are formed and laid out"), so the
        search assumes the majority direction is achievable — the LIKELY
        cost function — and the position-exact refinement pass then
        applies true BT/FNT costs.  With highest-executed-first chain
        ordering, hot taken targets usually do land backward, which is
        exactly why the paper found that ordering competitive for BT/FNT.
        """
        from .costmodel import make_model

        if arch == "btfnt":
            return cls(
                make_model("likely"),
                window=window,
                min_weight=min_weight,
                max_states=max_states,
                refine_model=make_model("btfnt"),
            )
        return cls(
            make_model(arch), window=window, min_weight=min_weight, max_states=max_states
        )

    # ------------------------------------------------------------------
    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        """Window the hot edges and search each window exhaustively."""
        chains = ChainSet(proc)
        share = self._share
        if share is None:
            retreating, windows = self._search_inputs(proc, profile)
        else:
            retreating, windows = share.reuse(
                ("tryn-inputs", self.window, self.min_weight), share.builds,
                proc, profile, lambda: self._search_inputs(proc, profile),
            )
        for nodes in windows:
            assignment = self._search_window(proc, nodes, profile, retreating, chains)
            for src, option in assignment:
                if option.kind == "link":
                    assert option.target is not None
                    chains.link(src, option.target)
                else:
                    chains.seal(src)

        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains

    def _search_inputs(
        self, proc: Procedure, profile: EdgeProfile
    ) -> Tuple[Set[Tuple[BlockId, BlockId]], List[List[BlockId]]]:
        """The cyclic-edge set and the windows, alike under every model.

        A window holds the next ``window`` alignable sources of the hot
        edges (weight >= ``min_weight``, heaviest first) that no earlier
        window holds.  The search decides every node of its window, so
        the partition does not depend on the cost model.
        """
        sources: List[BlockId] = []
        seen: Set[BlockId] = set()
        for (src, _dst), _w in profile.sorted_edges(proc, min_weight=self.min_weight):
            if src not in seen and proc.block(src).kind.alignable:
                seen.add(src)
                sources.append(src)
        windows = [
            sources[start:start + self.window]
            for start in range(0, len(sources), self.window)
        ]
        return proc.cyclic_edge_pairs(), windows

    # ------------------------------------------------------------------
    def _search_window(
        self,
        proc: Procedure,
        nodes: List[BlockId],
        profile: EdgeProfile,
        retreating: Set[Tuple[BlockId, BlockId]],
        chains: ChainSet,
    ) -> List[Tuple[BlockId, AlignmentOption]]:
        """Branch-and-bound over all configurations of the window nodes."""
        per_node: List[List[AlignmentOption]] = [
            block_options(proc, bid, profile, self.model, retreating, chains)
            for bid in nodes
        ]
        # Suffix lower bounds: the cheapest conceivable cost of nodes i..end.
        suffix = [0.0] * (len(nodes) + 1)
        for i in range(len(nodes) - 1, -1, -1):
            cheapest = min(o.cost for o in per_node[i]) if per_node[i] else 0.0
            suffix[i] = suffix[i + 1] + cheapest

        best_cost = [float("inf")]
        best_assign: List[Optional[List[AlignmentOption]]] = [None]
        current: List[AlignmentOption] = []
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
                    assert option.target is not None
                    if not chains.can_link(bid, option.target):
                        continue
                    joined = chains._join(bid, option.target)
                    current.append(option)
                    try:
                        dfs(idx + 1, acc + option.cost)
                    finally:
                        current.pop()
                        chains._split(bid, *joined)
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
            # Degenerate: even the first descent exceeded the cap.  Fall
            # back to each node's cheapest currently-feasible option.
            out: List[Tuple[BlockId, AlignmentOption]] = []
            for bid in nodes:
                options = block_options(
                    proc, bid, profile, self.model, retreating, chains
                )
                for option in options:
                    if option.kind == "link":
                        assert option.target is not None
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
