"""Chain ordering strategies (section 6.1 of the paper).

Once chains are formed, they must be concatenated into a final block
order.  The paper implemented two strategies in OM:

* ``weight`` — lay chains out from the most executed to the least
  executed.  The paper found this performs slightly better overall
  ("satisfies many of the branch priorities for the BT/FNT model, and at
  the same time allowing better cache locality") and used it for every
  simulation except the BT/FNT one.
* ``btfnt`` — the Pettis–Hansen precedence ordering: place chains so that
  conditional branches which should be predicted taken become *backward*
  branches.

The entry block's chain is always placed first, keeping the procedure
entry at its lowest address.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cfg import BlockId, Procedure
from ..profiling.edge_profile import EdgeProfile
from .chains import ChainSet


def order_chains(
    chains: ChainSet,
    profile: EdgeProfile,
    strategy: str = "weight",
) -> List[BlockId]:
    """Concatenate chains into a final block order using ``strategy``."""
    if strategy == "weight":
        ordered = _order_by_weight(chains, profile)
    elif strategy == "btfnt":
        ordered = _order_btfnt(chains, profile)
    else:
        raise ValueError(f"unknown chain-order strategy {strategy!r}")
    out: List[BlockId] = []
    for chain in ordered:
        out.extend(chain)
    return out


def _chain_weight(proc: Procedure, profile: EdgeProfile, chain: Sequence[BlockId]) -> int:
    return sum(profile.block_weight(proc, bid) for bid in chain)


def _split_entry(chains: ChainSet) -> Tuple[List[BlockId], List[List[BlockId]]]:
    entry_chain: List[BlockId] = []
    rest: List[List[BlockId]] = []
    for chain in chains.chains():
        if chain[0] == chains.entry:
            entry_chain = chain
        else:
            rest.append(chain)
    assert entry_chain, "entry chain missing"
    return entry_chain, rest


def _order_by_weight(chains: ChainSet, profile: EdgeProfile) -> List[List[BlockId]]:
    proc = chains.proc
    entry_chain, rest = _split_entry(chains)
    rest.sort(key=lambda c: (-_chain_weight(proc, profile, c), c[0]))
    return [entry_chain] + rest


def _order_btfnt(chains: ChainSet, profile: EdgeProfile) -> List[List[BlockId]]:
    """Pettis–Hansen BT/FNT precedence ordering.

    For every conditional branch predicted taken (by profile majority)
    whose taken target lives in a different chain, we would like the
    target chain placed *before* the branch's chain so the branch points
    backward.  We greedily emit chains: repeatedly pick the chain whose
    unsatisfied "wants to come after" weight is smallest (breaking ties
    toward hotter chains), which approximates a maximum-weight topological
    order of the precedence relation.
    """
    proc = chains.proc
    entry_chain, rest = _split_entry(chains)
    if not rest:
        return [entry_chain]
    chain_index: Dict[BlockId, int] = {}
    all_chains = [entry_chain] + rest
    for idx, chain in enumerate(all_chains):
        for bid in chain:
            chain_index[bid] = idx

    # precedence[a][b] = weight preferring chain b placed before chain a.
    precedence: Dict[int, Dict[int, int]] = {i: {} for i in range(len(all_chains))}
    for block in proc:
        taken_edge = proc.taken_edge(block.bid)
        fall_edge = proc.fallthrough_edge(block.bid)
        if taken_edge is None or fall_edge is None:
            continue  # only conditionals generate direction preferences
        w_taken = profile.weight(proc.name, block.bid, taken_edge.dst)
        w_fall = profile.weight(proc.name, block.bid, fall_edge.dst)
        if w_taken <= w_fall:
            continue  # predicted not-taken; no placement preference
        src_chain = chain_index[block.bid]
        dst_chain = chain_index[taken_edge.dst]
        if src_chain == dst_chain:
            continue
        bucket = precedence[src_chain]
        bucket[dst_chain] = bucket.get(dst_chain, 0) + w_taken

    placed = [0]  # entry chain is always first
    remaining = set(range(1, len(all_chains)))
    placed_set = {0}
    weights = [
        _chain_weight(proc, profile, chain) for chain in all_chains
    ]
    while remaining:
        best = None
        best_key = None
        for idx in sorted(remaining):
            unsatisfied = sum(
                w for before, w in precedence[idx].items() if before not in placed_set
            )
            key = (unsatisfied, -weights[idx], idx)
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        assert best is not None
        placed.append(best)
        placed_set.add(best)
        remaining.remove(best)
    return [all_chains[i] for i in placed]
