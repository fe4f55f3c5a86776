"""Property tests: the chain structure's invariants under random operations."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import ChainSet
from tests.core.chain_reference import UnionFindChainSet

from .strategies import programs


@st.composite
def link_scripts(draw):
    """A random sequence of (src, dst) link attempts plus unlink points."""
    n_ops = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("link", draw(st.integers(0, 30)), draw(st.integers(0, 30))))
        else:
            ops.append(("unlink", draw(st.integers(0, 30)), None))
    return ops


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=link_scripts())
def test_chains_stay_consistent_under_random_operations(program, script):
    proc = program.procedure("main")
    chains = ChainSet(proc)
    ids = list(proc.blocks)
    for op, a, b in script:
        src = ids[a % len(ids)]
        if op == "link":
            dst = ids[b % len(ids)]
            if chains.can_link(src, dst):
                chains.link(src, dst)
        else:
            if chains.succ[src] is not None:
                chains.unlink(src)
    chains.check()
    # A fall-through link always corresponds to a feasibility-approved pair.
    for src, dst in chains.succ.items():
        if dst is not None:
            assert chains.pred[dst] == src
            assert dst != proc.entry


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=link_scripts())
def test_chains_never_contain_cycles(program, script):
    proc = program.procedure("main")
    chains = ChainSet(proc)
    ids = list(proc.blocks)
    for op, a, b in script:
        src = ids[a % len(ids)]
        if op == "link":
            dst = ids[b % len(ids)]
            if chains.can_link(src, dst):
                chains.link(src, dst)
        elif chains.succ[src] is not None:
            chains.unlink(src)
    for chain in chains.chains():
        assert len(chain) == len(set(chain))
        # Walking succ from the head terminates at the tail.
        walked = []
        cur = chain[0]
        while cur is not None and len(walked) <= len(chain):
            walked.append(cur)
            cur = chains.succ[cur]
        assert walked == chain


#: Public edits applied to both sets, and the search's own link/undo.
EDITS = ("link", "unlink", "seal", "unseal", "push", "pop")


@st.composite
def edit_scripts(draw):
    """Random edits: public calls, plus search-style links undone LIFO."""
    return draw(st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 30), st.integers(0, 30)),
        max_size=30,
    ))


def _outcome(call, *args):
    try:
        call(*args)
    except ValueError:
        return "ValueError"
    return None


@settings(max_examples=40, deadline=None)
@given(program=programs(), script=edit_scripts())
def test_endpoint_maps_answer_as_the_union_find_reference(program, script):
    """After every edit, can_link agrees on every pair and chains() agree."""
    proc = program.procedure("main")
    chains, reference = ChainSet(proc), UnionFindChainSet(proc)
    ids = list(proc.blocks)
    searched = []  # (src, joined endpoints) of standing search links
    for op, a, b in script:
        src, dst = ids[a % len(ids)], ids[b % len(ids)]
        if op == "push":
            if chains.can_link(src, dst):
                searched.append((src, chains._join(src, dst)))
                reference.link(src, dst)
        elif op == "pop":
            if searched:
                src, joined = searched.pop()
                chains._split(src, *joined)
                reference.unlink(src)
        else:
            # The search undoes its links before the public edits resume.
            while searched:
                linked, joined = searched.pop()
                chains._split(linked, *joined)
                reference.unlink(linked)
            args = (src, dst) if op == "link" else (src,)
            assert _outcome(getattr(chains, op), *args) == _outcome(
                getattr(reference, op), *args
            ), (op, args)
        chains.check()
        assert chains.chains() == reference.chains()
        for x in ids:
            for y in ids:
                assert chains.can_link(x, y) == reference.can_link(x, y), (op, x, y)
