"""Stage-boundary validation: real pipelines pass, corrupted data fails.

The runner's three entry points hold no condition of their own: the
profile check runs lint passes RL008/RL009, the layout check runs
``ProcedureLayout.check()``, and the address-map check is the RL006
check the ``lower-addresses`` pass runs on each layout it lowers.
"""

import copy
import dataclasses

import pytest

import repro.runner.validate as validate_module
from repro.core import GreedyAligner
from repro.isa.encoder import INSTRUCTION_BYTES, link
from repro.profiling import profile_program
from repro.runner import (
    InvariantResult,
    ValidationError,
    render_invariant_report,
    run_suite_resilient,
    validate_layout,
    validate_linked,
    validate_profile,
)
from repro.runner import runner as runner_module
from repro.staticcheck import passes, run_lint
from repro.workloads import generate_benchmark


@pytest.fixture(scope="module")
def pipeline():
    program = generate_benchmark("eqntott", 0.02)
    profile = profile_program(program, seed=0)
    layout = GreedyAligner(chain_order="weight").align(program, profile)
    return program, profile, layout, link(layout)


def _fresh_profile(program):
    return profile_program(program, seed=0)


def _phantom(program):
    """A profile with an edge between blocks the CFG does not have."""
    bad = _fresh_profile(program)
    bad.set_weight(next(iter(bad.procedures())), 10**6, 10**6 + 1, 5)
    return bad


def _inflated(program):
    """A profile with one real edge inflated, so flow is not conserved."""
    bad = _fresh_profile(program)
    name = next(n for n in bad.procedures() if bad.proc_edges(n))
    (src, dst), _count = sorted(bad.proc_edges(name).items())[0]
    bad.set_weight(name, src, dst, bad.weight(name, src, dst) + 999_999)
    return bad


def _copy(linked):
    """A copy of ``linked`` whose address maps may be edited freely."""
    bad = copy.copy(linked)
    bad.blocks = {name: dict(blocks) for name, blocks in linked.blocks.items()}
    bad.proc_start = dict(linked.proc_start)
    return bad


def _edit_block(linked, pick, changes):
    """Edit the first linked block ``pick`` accepts by ``changes(block)``."""
    bad = _copy(linked)
    for blocks in bad.blocks.values():
        for bid, block in blocks.items():
            if pick(block):
                blocks[bid] = dataclasses.replace(block, **changes(block))
                return bad
    raise AssertionError("no linked block matches")


def _second_block(linked):
    """The second placed block of the first procedure: a predecessor exists."""
    name = linked.program.order[0]
    return linked.layout[name].placements[1].bid


def _holed(linked):
    """A linked image whose text segment claims 8 extra bytes."""
    bad = copy.copy(linked)
    bad.text_end = linked.text_end + 8
    return bad


def _late_procedure(linked):
    bad = _copy(linked)
    bad.proc_start[linked.program.order[0]] += INSTRUCTION_BYTES
    return bad


def _unaddressed(linked):
    bad = _copy(linked)
    del bad.blocks[linked.program.order[0]][_second_block(linked)]
    return bad


def _misaligned(linked):
    bid = _second_block(linked)
    return _edit_block(linked, lambda b: b.bid == bid, lambda b: {"start": b.start + 2})


def _hole(linked):
    bid = _second_block(linked)
    return _edit_block(
        linked, lambda b: b.bid == bid, lambda b: {"start": b.start + INSTRUCTION_BYTES}
    )


def _resized(linked):
    bid = _second_block(linked)
    return _edit_block(linked, lambda b: b.bid == bid, lambda b: {"size": b.size + 1})


def _stray_terminator(linked):
    return _edit_block(
        linked, lambda b: b.term_address is not None, lambda b: {"term_address": b.end}
    )


def _stray_jump(linked):
    return _edit_block(
        linked, lambda b: b.jump_address is not None, lambda b: {"jump_address": b.end}
    )


def _unplaced(linked):
    bad = _copy(linked)
    blocks = bad.blocks[linked.program.order[0]]
    any_block = next(iter(blocks.values()))
    blocks[10**6] = dataclasses.replace(any_block, bid=10**6)
    return bad


#: Each corruption of a linked image, and the words its RL006 finding
#: uses (the shifted ``text_end`` has its own tests below).
CORRUPTIONS = [
    (_late_procedure, "procedure starts at"),
    (_unaddressed, "has no address"),
    (_misaligned, "not instruction-aligned"),
    (_hole, "leaves a hole"),
    (_resized, "linked size"),
    (_stray_terminator, "terminator address"),
    (_stray_jump, "appended jump address"),
    (_unplaced, "unplaced blocks"),
]


class TestHealthyPipeline:
    def test_all_invariants_hold(self, pipeline):
        program, profile, layout, _ = pipeline
        report = run_lint(program, profile, {"greedy": layout})
        assert report.ok, report.summary()

    def test_validators_pass_silently(self, pipeline):
        program, profile, layout, linked = pipeline
        validate_profile(program, profile)
        validate_layout(layout)
        validate_linked(linked)
        assert passes.check_address_map(linked) == []


class TestProfileViolations:
    def test_phantom_edge_breaks_consistency(self, pipeline):
        program, _, _, _ = pipeline
        with pytest.raises(ValidationError) as info:
            validate_profile(program, _phantom(program))
        assert "RL008" in str(info.value)
        assert "not in the CFG" in str(info.value)

    def test_inflated_edge_breaks_conservation(self, pipeline):
        program, _, _, _ = pipeline
        with pytest.raises(ValidationError) as info:
            validate_profile(program, _inflated(program))
        assert "RL009" in str(info.value)
        assert "RL008" not in str(info.value)

    def test_validate_profile_raises_with_stage(self, pipeline):
        program, _, _, _ = pipeline
        with pytest.raises(ValidationError) as info:
            validate_profile(program, _phantom(program))
        assert info.value.stage == "profile"


class TestLayoutViolations:
    def test_dropped_block_is_not_a_permutation(self, pipeline):
        _, _, layout, _ = pipeline
        name, proc_layout = next(
            (n, pl) for n, pl in layout.layouts.items() if len(pl.placements) > 1
        )
        truncated = copy.copy(proc_layout)
        truncated.placements = proc_layout.placements[:-1]
        truncated.position = {p.bid: i for i, p in enumerate(truncated.placements)}
        bad = copy.copy(layout)
        bad.layouts = {**layout.layouts, name: truncated}
        with pytest.raises(ValidationError) as info:
            validate_layout(bad)
        assert info.value.stage == "align"
        assert "permutation" in str(info.value)


class TestAddressViolations:
    def test_shifted_text_end_fails_coverage(self, pipeline):
        _, _, _, linked = pipeline
        findings = passes.check_address_map(_holed(linked))
        assert [d.code for d in findings] == ["RL006"]
        assert "text segment ends" in findings[0].message

    def test_validate_linked_raises(self, pipeline):
        _, _, _, linked = pipeline
        with pytest.raises(ValidationError) as info:
            validate_linked(_holed(linked))
        assert info.value.stage == "link"
        assert "RL006" in str(info.value)

    @pytest.mark.parametrize(
        "corrupt,words", CORRUPTIONS, ids=[c.__name__.strip("_") for c, _ in CORRUPTIONS]
    )
    def test_every_address_condition_fails_validate_linked(self, pipeline, corrupt, words):
        _, _, _, linked = pipeline
        with pytest.raises(ValidationError) as info:
            validate_linked(corrupt(linked))
        assert info.value.stage == "link"
        assert words in str(info.value)

    def test_validate_linked_does_not_link_again(self, pipeline, monkeypatch):
        _, _, _, linked = pipeline

        def no_link(layout):
            raise AssertionError("validate_linked linked the layout again")

        monkeypatch.setattr(passes, "link", no_link)
        with pytest.raises(ValidationError, match="appended jump address"):
            validate_linked(_stray_jump(linked))

    def test_lower_addresses_reports_a_size_mismatch(self, pipeline, monkeypatch):
        program, profile, layout, _ = pipeline
        real_link = passes.link
        monkeypatch.setattr(passes, "link", lambda lay: _resized(real_link(lay)))
        report = run_lint(program, profile, {"greedy": layout})
        outcome = next(o for o in report.outcomes if o.pass_id == "lower-addresses")
        assert not outcome.passed
        assert any(
            d.code == "RL006" and "linked size" in d.message and d.layout == "greedy"
            for d in outcome.findings
        )


class TestRunnerUnit:
    def test_unit_validates_its_profile_once(self, monkeypatch):
        """The runner's profile stage validates; the experiment does not again."""
        calls = []
        real = validate_module.validate_profile

        def counting(program, profile):
            calls.append(profile)
            real(program, profile)

        monkeypatch.setattr(validate_module, "validate_profile", counting)
        monkeypatch.setattr(runner_module, "validate_profile", counting)
        result = run_suite_resilient(["alvinn"], scale=0.02, archs=("fallthrough",))
        assert not result.partial
        assert len(calls) == 1


class TestReporting:
    def test_report_shows_pass_and_fail(self):
        report = render_invariant_report([
            InvariantResult("lint:cfg-entry", "entry block exists", True),
            InvariantResult("layout-build", "aligned layouts build", False, ["boom"]),
        ])
        assert "PASS" in report and "FAIL" in report
        assert "      - boom" in report
        assert "1/2 invariants hold" in report

    def test_error_cites_every_finding(self, pipeline):
        program, _, _, _ = pipeline
        bad = _inflated(program)
        bad.set_weight(next(iter(bad.procedures())), 10**6, 10**6 + 1, 5)
        with pytest.raises(ValidationError) as info:
            validate_profile(program, bad)
        message = str(info.value)
        assert message.startswith("invariant violation — ")
        assert "RL008" in message and "RL009" in message
