"""Equal layouts are judged once; every label still gets its own verdict.

The registry's variants often agree (Greedy's two chain orders on every
suite program, Try15's BT/FNT and LIKELY searches, aligners that leave a
program as it is), so ``verify_alignments``, ``prove_layouts`` and
``prove_meld_layouts`` judge each distinct layout
(:func:`~repro.isa.layout.layout_key`) once and relabel the verdict for
its twins.  These tests require every multi-label result to equal
one-label calls report by report — label, counts, every divergence,
every proof's ``to_dict()`` — on the registry layouts of six programs
plus both layout faults, including a fault applied to only one of two
equal layouts.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.isa import ProgramLayout
from repro.oracle import alignment_layouts, verify_alignments
from repro.runner.faults import _flip_sense, _retarget_transfer
from repro.sim.decisions import capture_decisions
from repro.staticcheck.binary import prove_layouts, prove_meld_layouts
from repro.transforms import meld_program
from repro.workloads import generate_benchmark

SCALE = 0.05
SEED = 0
PROBED = ("eqntott", "compress", "alvinn", "gcc", "li", "espresso")


def _shape(layout: ProgramLayout):
    """A comparable form of a ProgramLayout (it defines no equality)."""
    return {name: proc.placements for name, proc in layout.layouts.items()}


def _probed(name: str):
    """The program, its trace and profile, the registry's layouts, and two
    labelled sets to judge: the registry's plus both faults on every
    layout, and the registry's with ``greedy-btfnt`` alone sense-flipped."""
    program = generate_benchmark(name, SCALE)
    trace = capture_decisions(program, seed=SEED)
    profile = trace.edge_profile(program)
    layouts = alignment_layouts(program, profile)
    probes: Dict[str, ProgramLayout] = {}
    for label, layout in layouts.items():
        flipped = _flip_sense(layout, profile)
        if flipped is not None:
            probes[f"{label}:flip-sense"] = flipped
        rng = random.Random(f"repro-fault:0:{name}:{label}:mutate-layout")
        mutated = _retarget_transfer(layout, profile, rng)
        if mutated is not None:
            probes[f"{label}:mutate-layout"] = mutated
    one_flipped = dict(layouts)
    one_flipped["greedy-btfnt"] = _flip_sense(layouts["greedy-btfnt"], profile)
    return program, trace, profile, layouts, ({**layouts, **probes}, one_flipped)


def _oracle_rows(reports) -> List[tuple]:
    return [
        (r.label, r.blocks_compared, r.edges_replayed, r.divergences) for r in reports
    ]


@pytest.mark.parametrize("name", PROBED)
def test_judges_equal_one_label_calls(name):
    program, trace, profile, layouts, judged = _probed(name)
    # The registry's twins are real: Greedy's two chain orders agree.
    assert _shape(layouts["greedy"]) == _shape(layouts["greedy-btfnt"])
    for labelled in judged:
        reports = verify_alignments(program, profile, labelled, seed=SEED, decisions=trace)
        alone = [
            verify_alignments(program, profile, {label: layout}, seed=SEED,
                              decisions=trace)[0]
            for label, layout in labelled.items()
        ]
        assert _oracle_rows(reports) == _oracle_rows(alone)

        proofs = prove_layouts(program, labelled)
        assert list(proofs) == list(labelled)
        for label, layout in labelled.items():
            (single,) = prove_layouts(program, {label: layout}).values()
            assert proofs[label].label == label
            assert proofs[label].to_dict() == single.to_dict(), (name, label)

    # A fault on one of two equal layouts fails that label only.  (The
    # prover may pass a flip between two observably identical arms, as
    # on gcc; the oracle replays the transfer and never does.)
    one_flipped = judged[1]
    reports = verify_alignments(program, profile, one_flipped, decisions=trace)
    assert [r.label for r in reports if not r.passed] == ["greedy-btfnt"]
    proofs = prove_layouts(program, one_flipped)
    assert {label for label, p in proofs.items() if not p.bisimilar} <= {"greedy-btfnt"}


class _Store:
    """The artifact-store ``put`` surface, recorded in call order."""

    def __init__(self):
        self.puts: List[tuple] = []

    def put(self, key, payload):
        self.puts.append((key, payload))


def test_every_label_stores_its_own_proof():
    program = generate_benchmark("alvinn", SCALE)
    profile = capture_decisions(program, seed=SEED).edge_profile(program)
    layouts = alignment_layouts(program, profile)
    store = _Store()
    proofs = prove_layouts(program, layouts, store=store, benchmark="alvinn")
    assert [key for key, _ in store.puts] == [f"proof/alvinn/{label}" for label in layouts]
    for (_key, payload), (label, proof) in zip(store.puts, proofs.items()):
        assert payload == proof.to_dict() and payload["label"] == label


def test_meld_layouts_equal_one_label_calls():
    original = generate_benchmark("eqntott", SCALE)
    melded, report = meld_program(original)
    assert report.applied
    profile = capture_decisions(melded, seed=SEED).edge_profile(melded)
    layouts = alignment_layouts(melded, profile)
    layouts["greedy-btfnt:flip-sense"] = _flip_sense(layouts["greedy-btfnt"], profile)
    proofs = prove_meld_layouts(original, layouts)
    assert list(proofs) == list(layouts)
    for label, layout in layouts.items():
        (single,) = prove_meld_layouts(original, {label: layout}).values()
        assert proofs[label].to_dict() == single.to_dict(), label
    assert not proofs["greedy-btfnt:flip-sense"].bisimilar
    assert proofs["greedy-btfnt"].bisimilar
