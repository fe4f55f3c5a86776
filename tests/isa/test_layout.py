"""Unit tests for layouts: placements, rewrites, semantic checking."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.isa.layout import (
    BlockPlacement,
    LayoutError,
    ProcedureLayout,
    ProgramLayout,
    layout_key,
    layout_twins,
)
from repro.runner.faults import _swap_placement
from repro.cfg import Program
from tests.conftest import diamond_procedure, loop_procedure


def _labels(proc):
    return {b.label: b.bid for b in proc}


class TestIdentityLayout:
    def test_identity_preserves_order(self, diamond):
        layout = ProcedureLayout.identity(diamond)
        assert [p.bid for p in layout.placements] == list(diamond.original_order)

    def test_identity_inserts_no_jumps(self, diamond):
        layout = ProcedureLayout.identity(diamond)
        assert layout.inserted_jumps() == []
        assert layout.inverted_conditionals() == []

    def test_identity_sizes_match(self, diamond):
        layout = ProcedureLayout.identity(diamond)
        assert layout.total_size() == diamond.instruction_count()


class TestFromOrder:
    def test_uncond_branch_removed_when_target_adjacent(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        # Place join right after endthen: the unconditional disappears.
        order = [ids["entry"], ids["test"], ids["then"], ids["endthen"],
                 ids["join"], ids["exit"], ids["else"]]
        layout = ProcedureLayout.from_order(proc, order)
        assert ids["endthen"] in layout.removed_branches()
        # else lost its fall-through adjacency: it needs a jump to join.
        assert (ids["else"], ids["join"]) in layout.inserted_jumps()

    def test_conditional_inverted_when_taken_successor_adjacent(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        order = [ids["entry"], ids["test"], ids["else"], ids["join"],
                 ids["exit"], ids["then"], ids["endthen"]]
        layout = ProcedureLayout.from_order(proc, order)
        assert ids["test"] in layout.inverted_conditionals()
        placement = layout.placements[layout.position[ids["test"]]]
        assert placement.taken_target == ids["then"]


class TestChecking:
    def test_non_permutation_rejected(self, diamond):
        placements = [BlockPlacement(bid) for bid in diamond.original_order[:-1]]
        with pytest.raises(LayoutError):
            ProcedureLayout(diamond, placements)

    def test_entry_must_be_first(self, diamond):
        order = list(diamond.original_order)
        order[0], order[1] = order[1], order[0]
        with pytest.raises(LayoutError):
            ProcedureLayout.from_order(diamond, order)

    def test_retargeted_branch_rejected(self, diamond):
        ids = _labels(diamond)
        placements = []
        for placement in ProcedureLayout.identity(diamond).placements:
            if placement.bid == ids["test"]:
                placement = BlockPlacement(placement.bid, taken_target=ids["exit"])
            placements.append(placement)
        with pytest.raises(LayoutError):
            ProcedureLayout(diamond, placements)

    def test_lost_successor_rejected(self, diamond):
        ids = _labels(diamond)
        # endthen's unconditional claims removal but join is not adjacent.
        placements = []
        for placement in ProcedureLayout.identity(diamond).placements:
            if placement.bid == ids["endthen"]:
                placement = BlockPlacement(placement.bid, branch_removed=True)
            placements.append(placement)
        with pytest.raises(LayoutError):
            ProcedureLayout(diamond, placements)


class TestSizes:
    def test_inserted_jump_grows_block(self):
        proc = loop_procedure()
        ids = _labels(proc)
        order = [ids["entry"], ids["latch"], ids["body"], ids["exit"]]
        layout = ProcedureLayout.from_order(proc, order)
        # entry lost adjacency to body: +1 jump instruction.
        assert layout.placed_size(ids["entry"]) == proc.block(ids["entry"]).size + 1

    def test_removed_branch_shrinks_block(self):
        proc = diamond_procedure()
        ids = _labels(proc)
        order = [ids["entry"], ids["test"], ids["then"], ids["endthen"],
                 ids["join"], ids["exit"], ids["else"]]
        layout = ProcedureLayout.from_order(proc, order)
        assert layout.placed_size(ids["endthen"]) == 0


class TestProgramLayout:
    def test_identity_program_layout(self, call_program):
        layout = ProgramLayout.identity(call_program)
        assert layout.total_size() == call_program.instruction_count()

    def test_missing_procedure_rejected(self, call_program):
        with pytest.raises(LayoutError):
            ProgramLayout(call_program, {})

    def test_iteration_follows_program_order(self, call_program):
        layout = ProgramLayout.identity(call_program)
        names = [pl.procedure.name for pl in layout]
        assert names == list(call_program.order)


class TestLayoutKey:
    """``layout_key`` is an exact content identity of the placements."""

    def test_equal_content_gives_equal_keys(self, call_program):
        a = ProgramLayout.identity(call_program)
        b = ProgramLayout.identity(call_program)
        assert a is not b and layout_key(a) == layout_key(b)

    @pytest.mark.parametrize("field, value", [
        ("taken_target", None),
        ("taken_target", 0),
        ("jump_target", 0),
        ("jump_target", 3),
        ("branch_removed", True),
    ])
    def test_every_placement_field_is_in_the_key(self, call_program, field, value):
        layout = ProgramLayout.identity(call_program)
        name = call_program.order[-1]
        for victim in layout[name].placements:
            if getattr(victim, field) != value:
                break
        changed = _swap_placement(layout, name, victim, replace(victim, **{field: value}))
        assert layout_key(changed) != layout_key(layout)

    def test_placement_order_is_in_the_key(self):
        proc = diamond_procedure()
        labels = _labels(proc)
        identity = ProgramLayout(Program([proc]), {proc.name: ProcedureLayout.identity(proc)})
        order = [labels[x] for x in ("entry", "test", "else", "join", "exit", "then", "endthen")]
        moved = ProgramLayout(
            Program([proc]), {proc.name: ProcedureLayout.from_order(proc, order)}
        )
        assert layout_key(moved) != layout_key(identity)

    def test_the_key_does_not_keep_its_layout_alive(self, call_program):
        layout = ProgramLayout.identity(call_program)
        alive = weakref.ref(layout)
        key = layout_key(layout)
        del layout
        gc.collect()
        assert alive() is None and isinstance(key, bytes)

    def test_twins_pair_each_label_with_its_first_equal_label(self, call_program):
        layout = ProgramLayout.identity(call_program)
        name = call_program.order[-1]
        victim = layout[name].placements[0]
        other = _swap_placement(layout, name, victim, replace(victim, jump_target=0))
        labelled = {"a": layout, "b": other, "c": ProgramLayout.identity(call_program),
                    "d": other}
        assert [(label, twin) for label, _layout, twin in layout_twins(labelled)] == [
            ("a", None), ("b", None), ("c", "a"), ("d", "b"),
        ]
