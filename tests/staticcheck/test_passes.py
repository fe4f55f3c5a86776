"""Verifier passes: clean workloads lint clean, seeded defects are caught.

Each defect class the fault-injection harness can seed must produce its
own distinct RLxxx signature, so a lint failure names the broken layer
rather than just saying "something is wrong".
"""

import json

import pytest

from repro.cfg import TerminatorKind
from repro.core import GreedyAligner
from repro.isa import ProgramLayout
from repro.profiling import profile_program
from repro.runner import FaultPlan, parse_fault_spec
from repro.runner.faults import FaultInjector
from repro.staticcheck import (
    CODES,
    PASSES,
    REPORT_SCHEMA_VERSION,
    LintContext,
    PassManager,
    Severity,
    VerifierPass,
    run_lint,
)
from repro.workloads import generate_benchmark

SCALE = 0.05


def workload(name="eqntott"):
    program = generate_benchmark(name, SCALE)
    profile = profile_program(program, seed=0)
    return program, profile


def injector(spec, seed=0):
    plan = FaultPlan(specs=(parse_fault_spec(spec),), seed=seed)
    return FaultInjector(plan)


def layouts_for(program, profile):
    return {
        "orig": ProgramLayout.identity(program),
        "greedy": GreedyAligner().align(program, profile),
    }


class TestCleanWorkloads:
    @pytest.mark.parametrize("name", ["eqntott", "alvinn", "cfront"])
    def test_zero_findings_on_clean_workloads(self, name):
        program, profile = workload(name)
        report = run_lint(program, profile, layouts_for(program, profile),
                          subject=name)
        assert report.ok
        assert report.findings == []
        # Without a MeldContext or StaticContext the meld-audit and
        # prediction-audit passes are skipped entirely.
        expected = [p for p in PASSES
                    if not p.needs_meld and not p.needs_static]
        assert len(report.outcomes) == len(expected)

    def test_lint_without_profile_or_layouts_runs_cfg_passes_only(self):
        program, _ = workload()
        report = run_lint(program)
        assert report.ok
        ran = {o.pass_id for o in report.outcomes}
        assert "cfg-unique-blocks" in ran
        assert "profile-consistency" not in ran
        assert "lower-addresses" not in ran


class TestSeededDefects:
    def both_break_cfg_modes(self):
        """Seeds that exercise the duplicate-block and dangling-edge modes."""
        program, profile = workload()
        reports = {}
        for seed in range(4):
            broken = injector("eqntott:lint:break-cfg", seed).break_cfg(
                "eqntott", 1, program, profile
            )
            report = run_lint(broken, profile, subject="eqntott")
            assert not report.ok
            reports[frozenset(report.codes())] = report
        return reports

    def test_break_cfg_is_caught_with_structural_codes(self):
        signatures = set()
        for codes in self.both_break_cfg_modes():
            signatures.add(codes)
            assert codes & {"RL001", "RL004"}, codes
        # Both corruption modes appear across seeds 0..3.
        assert any("RL001" in s for s in signatures)
        assert any("RL004" in s for s in signatures)

    def test_flip_sense_is_caught_as_rl010(self):
        program, profile = workload()
        layouts = layouts_for(program, profile)
        layouts["greedy"] = injector("eqntott:layout:flip-sense").mutate_layout(
            "eqntott", 1, "greedy", layouts["greedy"], profile
        )
        report = run_lint(program, profile, layouts, subject="eqntott")
        assert not report.ok
        assert "RL010" in report.codes()
        assert "RL012" not in report.codes()

    def test_mutate_layout_is_caught_as_rl012(self):
        program, profile = workload()
        layouts = layouts_for(program, profile)
        layouts["greedy"] = injector("eqntott:layout:mutate-layout").mutate_layout(
            "eqntott", 1, "greedy", layouts["greedy"], profile
        )
        report = run_lint(program, profile, layouts, subject="eqntott")
        assert not report.ok
        assert "RL012" in report.codes()
        assert "RL010" not in report.codes()

    def test_corrupt_profile_is_caught_as_rl008(self):
        program, profile = workload()
        profile = injector("eqntott:profile:corrupt-profile").corrupt_profile(
            "eqntott", 1, profile
        )
        report = run_lint(program, profile, subject="eqntott")
        assert not report.ok
        assert "RL008" in report.codes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_corrupt_profile_breaks_flow_as_rl009(self, seed):
        """The inflated edge is a real one, so flow conservation breaks too."""
        for name in ("eqntott", "ora", "groff"):
            program, profile = workload(name)
            profile = injector(f"{name}:profile:corrupt-profile", seed).corrupt_profile(
                name, 1, profile
            )
            codes = run_lint(program, profile, subject=name).codes()
            assert {"RL008", "RL009"} <= set(codes), (name, codes)

    def test_defect_signatures_are_distinct(self):
        """The three seeded defect classes never share one diagnosis."""
        program, profile = workload()
        broken = injector("eqntott:lint:break-cfg").break_cfg(
            "eqntott", 1, program, profile
        )
        cfg_codes = set(run_lint(broken, profile).codes())

        layouts = layouts_for(program, profile)
        flip = dict(layouts)
        flip["greedy"] = injector("eqntott:layout:flip-sense").mutate_layout(
            "eqntott", 1, "greedy", layouts["greedy"], profile
        )
        flip_codes = set(run_lint(program, profile, flip).codes())

        retarget = dict(layouts)
        retarget["greedy"] = injector("eqntott:layout:mutate-layout").mutate_layout(
            "eqntott", 1, "greedy", layouts["greedy"], profile
        )
        retarget_codes = set(run_lint(program, profile, retarget).codes())

        assert cfg_codes and flip_codes and retarget_codes
        assert cfg_codes != flip_codes != retarget_codes
        assert cfg_codes != retarget_codes


def _profile_findings(program, profile, code):
    report = run_lint(program, profile, subject="eqntott")
    return [d for d in report.findings if d.code == code]


class TestProfilePasses:
    """Each condition of RL008 (profile-consistency) and RL009 (profile-flow)."""

    def test_rl008_flags_an_unknown_procedure(self):
        program, profile = workload()
        profile.set_weight("nosuch", 0, 1, 5)
        findings = _profile_findings(program, profile, "RL008")
        assert [d.procedure for d in findings] == ["nosuch"]
        assert "not in the program" in findings[0].message

    def test_rl008_flags_a_negative_count(self):
        program, profile = workload()
        name = "cmppt"
        (src, dst), _count = sorted(profile.proc_edges(name).items())[0]
        profile.set_weight(name, src, dst, -1)
        findings = _profile_findings(program, profile, "RL008")
        assert [(d.procedure, d.block) for d in findings] == [(name, src)]
        assert "negative count" in findings[0].message

    def test_rl008_flags_an_edge_the_cfg_lacks(self):
        program, profile = workload()
        profile.set_weight("cmppt", 10**6, 10**6 + 1, 5)
        findings = _profile_findings(program, profile, "RL008")
        assert [(d.procedure, d.block) for d in findings] == [("cmppt", 10**6)]
        assert "not in the CFG" in findings[0].message

    def test_rl009_flags_an_unbalanced_block(self):
        program, profile = workload()
        proc = program.procedure("cmppt")
        src, dst = next(
            (e.src, e.dst) for e in proc.edges
            if e.src != e.dst and e.src != proc.entry
            and proc.block(e.dst).kind is not TerminatorKind.RETURN
        )
        profile.set_weight(proc.name, src, dst, profile.weight(proc.name, src, dst) + 9)
        findings = _profile_findings(program, profile, "RL009")
        assert sorted(d.block for d in findings) == sorted((src, dst))
        assert all("!= out-weight" in d.message for d in findings)
        assert _profile_findings(program, profile, "RL008") == []

    def test_rl009_flags_an_entry_fed_more_than_it_sends(self):
        program, profile = workload()
        proc = program.procedure("cmppt")
        (src, _dst), _count = sorted(profile.proc_edges(proc.name).items())[-1]
        profile.set_weight(proc.name, src, proc.entry, 10**6)
        findings = _profile_findings(program, profile, "RL009")
        entry = [d for d in findings if d.block == proc.entry]
        assert entry and "entry in-weight" in entry[0].message

    def test_rl009_flags_a_return_block_with_out_weight(self):
        program, profile = workload()
        proc = program.procedure("cmppt")
        ret = next(b for b in proc.blocks if proc.block(b).kind is TerminatorKind.RETURN)
        profile.set_weight(proc.name, ret, proc.entry, 5)
        findings = _profile_findings(program, profile, "RL009")
        assert [d.block for d in findings if d.block == ret] == [ret]
        assert any("return block has out-weight" in d.message for d in findings)


class TestPassManager:
    def test_crashing_pass_is_isolated_as_rl000(self):
        def explode(ctx):
            raise RuntimeError("boom")

        crasher = VerifierPass("crasher", "always explodes", explode)
        program, profile = workload()
        ctx = LintContext(program=program, profile=profile)
        report = PassManager((crasher,) + tuple(PASSES)).run(ctx, "eqntott")
        outcome = next(o for o in report.outcomes if o.pass_id == "crasher")
        assert outcome.crashed and not outcome.passed
        assert outcome.findings[0].code == "RL000"
        assert "boom" in outcome.findings[0].message
        # The crash did not stop the other passes.
        others = [o for o in report.outcomes if o.pass_id != "crasher"]
        assert others and all(o.passed for o in others)

    def test_every_pass_has_a_catalogued_code_space(self):
        assert set(CODES) == {f"RL{i:03d}" for i in range(25)}
        for code, title in CODES.items():
            assert title and title[0].islower() or title.startswith("internal")


class TestReportContract:
    def test_json_report_schema(self):
        program, profile = workload()
        report = run_lint(program, profile, layouts_for(program, profile),
                          subject="eqntott")
        payload = json.loads(report.to_json())
        assert payload["schema"] == REPORT_SCHEMA_VERSION
        assert payload["subject"] == "eqntott"
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["errors"] == 0
        assert {p["id"] for p in payload["passes"]} == {
            p.pass_id for p in PASSES
            if not p.needs_meld and not p.needs_static
        }
        assert payload["findings"] == []

    def test_findings_sorted_by_severity_then_code(self):
        program, profile = workload()
        broken = injector("eqntott:lint:break-cfg", seed=1).break_cfg(
            "eqntott", 1, program, profile
        )
        report = run_lint(broken, profile, subject="eqntott")
        ranks = [f.severity.rank for f in report.findings]
        assert ranks == sorted(ranks), "most severe findings come first"
        assert report.errors and report.summary()
        assert all(f.severity is Severity.ERROR for f in report.errors)
