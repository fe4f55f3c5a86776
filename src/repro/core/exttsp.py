"""Extended-TSP branch alignment (Newell & Pupyrev, 2018).

Classic Pettis–Hansen chain merging maximises the weight of edges made
*adjacent* — a travelling-salesman objective over fall-throughs.  The
extended-TSP objective also credits edges that end up as *short jumps*,
because a taken branch whose target is nearby stays in the same page and
I-cache lines and is cheap on every modelled front end:

    score(layout) = sum over edges e of w(e) * K(d(e))

where ``d`` is the byte distance from the end of the source block to the
start of the destination block in the final layout, and

    K(0)            = 1.0                         (fall-through)
    K(d), forward   = 0.1 * (1 - d / 1024),  0 < d <= 1024
    K(d), backward  = 0.05 * (1 - d / 640),  0 < d <= 640
    K(d)            = 0 otherwise.

The weights and window sizes are the ones the 2018 paper found by
parameter sweep on large server binaries.

The search is the paper's greedy chain merging: starting from singleton
chains, repeatedly apply the concatenation (either order of any two
chains connected by profiled flow) with the largest positive score gain.
Concatenation never changes intra-chain distances, so the gain of a
merge is, mathematically, the score of the edges crossing the two chains
at their new relative offsets — edges between distinct chains score zero
until a merge prices them in.  Distances are measured in source-block
bytes; link-time jump insertion can stretch a chain by a few
instructions, an approximation the paper makes as well.

The search is incremental.  A merge's gain depends only on its two
chains, so it stays valid until one of them changes: every candidate
waits in a lazy max-heap, and a merge re-prices only the pairs that
touch the merged chain.  Each chain caches its score and the credit of
every edge inside it; pricing a pair costs one pass over the two chains'
edges, not a scan of the whole procedure.

Rounding, not the objective, decides some ties.  The gain is computed as
``score(left + right) - score(left) - score(right)``, each score summed
over the chain's edges in heaviest-first edge order, and that is not
bit-equal to summing the cross-edge credits directly.  On
``generate_synthetic(seed=0)`` with the wide-cfg benchmark recipe, 545
of the 1,124 merges pick a gain whose second component differs in its
low bits from the direct cross-edge sum.  Using the direct sum moves the
layouts of 24 of 108 cases (the 24 suite programs at scales 1.0 and 0.1
and six wide-cfg programs, each profiled at seeds 0 and 7): all 12
wide-cfg cases and 12 of the 96 suite cases.  So the subtraction and its
summation order are kept exactly; changing either moves layouts, and
with them ``results/`` and every benchmark digest.

Like Greedy, the algorithm is architecture-blind (``model`` stays
``None``): the objective itself is the cost model, so no per-arch sense
refinement runs and one layout serves every simulated architecture.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from ..cfg import BlockId, Procedure, TerminatorKind
from ..isa.encoder import INSTRUCTION_BYTES
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet

#: K(0): the full credit for a fall-through out of a conditional block —
#: the taken transfer disappears entirely.
FALLTHROUGH_WEIGHT = 1.0
#: K(0) for a fall-through out of an unconditional block.  Slightly
#: below the conditional credit: eliding an unconditional jump only
#: saves the jump instruction, while a conditional falling through also
#: saves the misfetch penalty on every modelled front end.  BOLT's
#: ext-TSP implementation weights jump kinds separately for the same
#: reason; the asymmetry also makes equal-weight merge ties resolve
#: toward eliminating taken *branches* rather than jumps.
UNCOND_FALLTHROUGH_WEIGHT = 0.9
#: Peak credit for a short forward jump, decaying linearly to the window.
FORWARD_WEIGHT = 0.1
FORWARD_WINDOW = 1024
#: Peak credit for a short backward jump (loops), decaying to the window.
BACKWARD_WEIGHT = 0.05
BACKWARD_WINDOW = 640


def jump_score(distance: int, conditional: bool = True) -> float:
    """K(d) for one edge at signed byte distance ``distance``.

    ``distance`` is start(dst) - end(src): zero for a fall-through,
    positive for a forward jump, negative for a backward jump.
    ``conditional`` says whether the source block ends in a conditional
    branch (fall-through credit is highest for those).
    """
    if distance == 0:
        return FALLTHROUGH_WEIGHT if conditional else UNCOND_FALLTHROUGH_WEIGHT
    if 0 < distance <= FORWARD_WINDOW:
        return FORWARD_WEIGHT * (1.0 - distance / FORWARD_WINDOW)
    if 0 > distance >= -BACKWARD_WINDOW:
        return BACKWARD_WEIGHT * (1.0 + distance / BACKWARD_WINDOW)
    return 0.0


#: One weighted edge: source, destination, execution count, and whether
#: the source block ends in a conditional branch.
Edge = Tuple[BlockId, BlockId, int, bool]
#: One edge's credit inside a chain, keyed by its index in the weighted
#: edge list (which is also the order chain scores are summed in).
Credit = Tuple[int, float]


def _summed(credits: List[Credit]) -> float:
    """Add the credits one by one, in list order, from zero."""
    total = 0.0
    for _index, credit in credits:
        total += credit
    return total


class _MergeSearch:
    """Incremental state of one procedure's best-gain-first merging.

    Chains are keyed by their head block.  Each chain carries its blocks,
    its byte length, the credit of every weighted edge inside it, and
    their sum (its score).  ``cross[a][b]`` lists the weighted edges
    between chains ``a`` and ``b``; the two chains are a merge candidate,
    in either order, exactly when that list is non-empty.  Every
    candidate with a positive gain sits in a lazy max-heap stamped with
    both chains' versions; a merge bumps the surviving chain's version,
    re-prices only the pairs that touch it, and stale entries are
    dropped when popped.
    """

    def __init__(
        self,
        chains: ChainSet,
        sizes: Dict[BlockId, int],
        weighted: List[Edge],
        junction: Dict[Tuple[BlockId, BlockId], float],
    ):
        self.chains = chains
        self.sizes = sizes
        self.weighted = weighted
        self.junction = junction
        blocks = list(sizes)
        self.members: Dict[BlockId, List[BlockId]] = {b: [b] for b in blocks}
        #: Head of the chain holding each block, and the block's byte
        #: offset from that head.
        self.owner: Dict[BlockId, BlockId] = {b: b for b in blocks}
        self.offset: Dict[BlockId, int] = {b: 0 for b in blocks}
        self.length: Dict[BlockId, int] = dict(sizes)
        self.inner: Dict[BlockId, List[Credit]] = {b: [] for b in blocks}
        self.cross: Dict[BlockId, Dict[BlockId, List[int]]] = {b: {} for b in blocks}
        self.version: Dict[BlockId, int] = {b: 0 for b in blocks}
        self.heap: List[Tuple[float, float, BlockId, BlockId, int, int]] = []
        for index, (src, dst, weight, conditional) in enumerate(weighted):
            if src == dst:
                credit = weight * jump_score(-sizes[src], conditional)
                self.inner[src].append((index, credit))
                continue
            shared = self.cross[src].get(dst)
            if shared is None:
                shared = self.cross[src][dst] = self.cross[dst][src] = []
            shared.append(index)
        self.score: Dict[BlockId, float] = {
            b: _summed(credits) for b, credits in self.inner.items()
        }
        for first in blocks:
            for second in self.cross[first]:
                self.offer(first, second)

    # ------------------------------------------------------------------
    def joined(self, first: BlockId, second: BlockId) -> List[Credit]:
        """Credits of the edges inside ``first + second``, in edge order.

        Concatenation keeps every intra-chain distance, so only the edges
        between the two chains are priced afresh.
        """
        shift = self.length[first]
        credits = self.inner[first] + self.inner[second]
        for index in self.cross[first][second]:
            src, dst, weight, conditional = self.weighted[index]
            src_start = self.offset[src] + (shift if self.owner[src] == second else 0)
            dst_start = self.offset[dst] + (shift if self.owner[dst] == second else 0)
            distance = dst_start - (src_start + self.sizes[src])
            credits.append((index, weight * jump_score(distance, conditional)))
        credits.sort()
        return credits

    def offer(self, first: BlockId, second: BlockId) -> None:
        """Price ``first + second`` and queue it if the gain is positive."""
        left, right = self.members[first], self.members[second]
        if not self.chains.can_link(left[-1], right[0]):
            return
        total = (
            _summed(self.joined(first, second))
            - self.score[first]
            - self.score[second]
        )
        adjacency = self.junction.get((left[-1], right[0]), 0.0)
        rest = total - adjacency
        if (adjacency, rest) > (0.0, 0.0):
            # Larger gains pop first; equal gains go to the smallest
            # (first, second) pair, as in a scan of the sorted pairs.
            entry = (-adjacency, -rest, first, second,
                     self.version[first], self.version[second])
            heapq.heappush(self.heap, entry)

    def merge(self, first: BlockId, second: BlockId) -> None:
        """Append chain ``second`` to chain ``first`` and re-price around it."""
        left, right = self.members[first], self.members.pop(second)
        self.chains.link(left[-1], right[0])
        credits = self.joined(first, second)
        self.inner[first] = credits
        self.score[first] = _summed(credits)
        shift = self.length[first]
        for bid in right:
            self.owner[bid] = first
            self.offset[bid] += shift
        left.extend(right)
        self.length[first] += self.length.pop(second)
        del self.inner[second], self.score[second], self.version[second]
        self.version[first] += 1
        near = self.cross[first]
        del near[second]
        for other, edges in self.cross.pop(second).items():
            if other == first:
                continue
            far = self.cross[other]
            del far[second]
            near[other] = far[first] = near.get(other, []) + edges
        for other in near:
            self.offer(first, other)
            self.offer(other, first)

    def run(self) -> None:
        """Merge best-gain-first until no pair has a positive gain."""
        while self.heap:
            _adj, _rest, first, second, v_first, v_second = heapq.heappop(self.heap)
            if (
                self.version.get(first) == v_first
                and self.version.get(second) == v_second
            ):
                self.merge(first, second)


class ExtTSPAligner(Aligner):
    """Chain merging that maximises the extended-TSP objective."""

    name = "exttsp"

    def __init__(self, min_weight: int = 1):
        #: Edges below this execution count neither score nor drive
        #: merging; they are threaded by the shared cold-edge pass.
        self.min_weight = min_weight

    # ------------------------------------------------------------------
    def build_chains(self, proc: Procedure, profile: EdgeProfile) -> ChainSet:
        chains = ChainSet(proc)
        sizes = {
            bid: proc.block(bid).size * INSTRUCTION_BYTES for bid in proc.blocks
        }
        weighted = [
            (src, dst, weight, proc.block(src).kind is TerminatorKind.COND)
            for (src, dst), weight in profile.sorted_edges(
                proc, min_weight=self.min_weight
            )
        ]
        junction = {
            (src, dst): weight * jump_score(0, cond)
            for src, dst, weight, cond in weighted
        }
        # Greedy merging, best-gain-first.  The gain is lexicographic:
        # the junction's fall-through credit decides, and the
        # distance-decayed jump credits of every other cross edge only
        # break ties and drive credit-only merges.  Without the
        # precedence a 3-point backward-jump credit can outvote a
        # 2-point fall-through difference, trading real fall-throughs
        # for short jumps — the opposite of what K's magnitudes intend.
        _MergeSearch(chains, sizes, weighted, junction).run()
        # Thread the cold remainder exactly like every other algorithm.
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains
