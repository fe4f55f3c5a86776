"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.profiling import load_profile


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("alvinn", "gcc", "db++", "tex"):
            assert name in out
        assert "SPECfp92" in out and "Other" in out


class TestProfile:
    def test_writes_profile(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["profile", "compress", str(path), "--scale", "0.02"]) == 0
        profile = load_profile(path)
        assert "main" in profile.procedures()
        assert "wrote" in capsys.readouterr().out


class TestAlign:
    def test_align_prints_cpi_table(self, capsys):
        assert main(["align", "eqntott", "--scale", "0.03",
                     "--algorithm", "tryn", "--arch", "likely"]) == 0
        out = capsys.readouterr().out
        assert "inverted conditionals" in out
        assert "btb-256x4" in out

    def test_align_with_saved_profile(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["profile", "compress", str(path), "--scale", "0.02"])
        capsys.readouterr()
        assert main(["align", "compress", "--scale", "0.02",
                     "--profile", str(path), "--algorithm", "greedy"]) == 0
        assert "greedy alignment" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["align", "eqntott", "--algorithm", "oracle"])


class TestTables:
    def test_table2_subset(self, capsys):
        assert main(["table2", "--benchmarks", "alvinn,li", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "alvinn" in out and "li" in out and "%Taken" in out

    def test_table3_to_file(self, tmp_path):
        path = tmp_path / "t3.txt"
        assert main(["table3", "--benchmarks", "alvinn", "--scale", "0.02",
                     "-o", str(path)]) == 0
        assert "fallthrough:try15" in path.read_text()

    def test_table4_subset(self, capsys):
        assert main(["table4", "--benchmarks", "compress", "--scale", "0.02"]) == 0
        assert "btb-256x4:try15" in capsys.readouterr().out

    def test_figure4_subset(self, capsys):
        assert main(["figure4", "--benchmarks", "eqntott", "--scale", "0.02"]) == 0
        assert "Pettis&Hansen" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["table2", "--benchmarks", "doom"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestDoctor:
    def test_doctor_reports_pass(self, capsys):
        assert main(["doctor", "alvinn", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "invariants hold" in out

    def test_doctor_unknown_benchmark_is_usage_error(self, capsys):
        assert main(["doctor", "nosuch"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_doctor_prints_the_lint_report_with_or_without_lint(self, capsys):
        assert main(["doctor", "alvinn", "--scale", "0.02"]) == 0
        plain = capsys.readouterr().out
        assert main(["doctor", "alvinn", "--scale", "0.02", "--lint"]) == 0
        assert capsys.readouterr().out == plain
        assert "lint:profile-flow" in plain and "lint:lower-addresses" in plain

    @pytest.mark.parametrize("flags", [[], ["--lint"]])
    def test_doctor_judges_a_foreign_profile(self, tmp_path, capsys, flags):
        path = tmp_path / "eqntott.json"
        assert main(["profile", "eqntott", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        code = main(["doctor", "gcc", "--scale", "0.05", "--profile", str(path), *flags])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  lint:profile-consistency" in out and "RL008" in out

    def test_profile_without_benchmark_is_usage_error(self, tmp_path, capsys):
        assert main(["doctor", "--lint", "--profile", str(tmp_path / "p.json")]) == 2
        assert "--profile" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lint"]])
    def test_unbuildable_layout_fails_doctor(self, monkeypatch, capsys, flags):
        from repro.core import GreedyAligner

        def refuse(self, program, profile):
            raise RuntimeError("aligner refused")

        monkeypatch.setattr(GreedyAligner, "align", refuse)
        assert main(["doctor", "alvinn", "--scale", "0.02", *flags]) == 1
        out = capsys.readouterr().out
        assert "FAIL  layout-build" in out
        assert "layout 'greedy' could not be built" in out
        assert "aligner refused" in out


class TestLint:
    @pytest.fixture
    def refusing_greedy(self, monkeypatch):
        from repro.core import GreedyAligner

        def refuse(self, program, profile):
            raise RuntimeError("aligner refused")

        monkeypatch.setattr(GreedyAligner, "align", refuse)

    def test_unbuildable_layout_fails_lint(self, refusing_greedy, capsys):
        assert main(["lint", "alvinn", "--scale", "0.02"]) == 1
        out = capsys.readouterr().out
        assert ("error: layout 'greedy' could not be built "
                "(RuntimeError: aligner refused)") in out

    def test_unbuildable_layout_fails_lint_json(self, refusing_greedy, capsys):
        assert main(["lint", "alvinn", "--scale", "0.02", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["unbuilt"] == {"greedy": "RuntimeError: aligner refused"}
        assert payload["summary"]["ok"] is False
        assert "greedy" not in payload["layouts"]


class TestResilienceFlags:
    def test_injected_crash_gives_partial_exit(self, capsys):
        assert main(["table3", "--benchmarks", "alvinn,compress",
                     "--scale", "0.02", "--inject", "alvinn:align:crash:99"]) == 3
        captured = capsys.readouterr()
        assert "partial: true" in captured.out
        assert "alvinn" in captured.err

    def test_bad_inject_spec_is_usage_error(self, capsys):
        assert main(["table3", "--benchmarks", "alvinn",
                     "--inject", "nope"]) == 2
        assert "fault spec" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["table3", "--benchmarks", "alvinn", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_trace_fault_fires_in_table3(self, capsys):
        assert main(["table3", "--benchmarks", "eqntott", "--scale", "0.02",
                     "--inject", "eqntott:trace:crash:99"]) == 3

    def test_figure4_rejects_trace_faults(self, capsys):
        """A trace-stage fault fails the figure4 unit, as it does in table3."""
        assert main(["figure4", "--benchmarks", "eqntott", "--scale", "0.02",
                     "--inject", "eqntott:trace:crash:99"]) == 3
        captured = capsys.readouterr()
        assert "partial: true" in captured.out
        assert "trace" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--replay-check"],
        ["--trace-cache", "traces", "--inject", "eqntott:trace:corrupt-trace"],
        ["--trace-cache", "traces"],
    ])
    def test_figure4_has_no_trace_flags(self, flags, tmp_path, monkeypatch, capsys):
        """figure4 takes table3's trace flags, and they never change its
        table: the replay check passes, and a cold cache, a warm cache and
        a corrupted entry all print the uncached table."""
        monkeypatch.chdir(tmp_path)
        argv = ["figure4", "--benchmarks", "eqntott", "--scale", "0.02"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        for _ in range(2):
            assert main(argv + flags) == 0
            assert capsys.readouterr().out == plain
        if "--trace-cache" in flags:
            assert list((tmp_path / "traces").glob("trace_eqntott*.json"))

    def test_checkpoint_resume_via_cli(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.jsonl")
        assert main(["table3", "--benchmarks", "alvinn,compress",
                     "--scale", "0.02", "--checkpoint", ckpt,
                     "--inject", "alvinn:align:crash:99"]) == 3
        capsys.readouterr()
        assert main(["table3", "--benchmarks", "alvinn,compress",
                     "--scale", "0.02", "--checkpoint", ckpt, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "resumed" in captured.err
        assert "alvinn" in captured.out and "compress" in captured.out

    def test_mismatched_resume_is_runtime_error(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.jsonl")
        assert main(["table3", "--benchmarks", "compress", "--scale", "0.02",
                     "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["table3", "--benchmarks", "compress", "--scale", "0.05",
                     "--checkpoint", ckpt, "--resume"]) == 1
        assert "different run configuration" in capsys.readouterr().err

    def test_meld_mismatched_resume_is_runtime_error(self, tmp_path, capsys):
        # --meld changes every unit's payload, so a queue written with it
        # must not serve a run without it.
        ckpt = str(tmp_path / "q")
        assert main(["table3", "--benchmarks", "eqntott", "--scale", "0.02",
                     "--meld", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["table3", "--benchmarks", "eqntott", "--scale", "0.02",
                     "--checkpoint", ckpt, "--resume"]) == 1
        assert "different run configuration" in capsys.readouterr().err

    def test_checkpoint_naming_a_file_is_usage_error(self, tmp_path, capsys):
        journal = tmp_path / "old.jsonl"
        journal.write_text('{"kind": "header"}\n')
        assert main(["table3", "--benchmarks", "compress", "--scale", "0.02",
                     "--checkpoint", str(journal), "--resume"]) == 2
        assert "queue directory" in capsys.readouterr().err


class TestRetiredCommands:
    def test_bench_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table3", "--benchmarks", "eqntott", "--scale", "0.02",
                  "--engine", "execute"])
        assert exc.value.code == 2


class TestDot:
    def test_dot_output(self, capsys):
        assert main(["dot", "eqntott", "cmppt", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "style=dotted" in out

    def test_dot_with_weights(self, capsys):
        assert main(["dot", "eqntott", "cmppt", "--weights", "--scale", "0.02"]) == 0
        assert "label=" in capsys.readouterr().out

    def test_unknown_procedure_rejected(self, capsys):
        assert main(["dot", "eqntott", "nosuchproc"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBreakdownCommand:
    def test_breakdown_table(self, capsys):
        assert main(["breakdown", "compress", "--scale", "0.02",
                     "--archs", "fallthrough,likely"]) == 0
        out = capsys.readouterr().out
        assert "Misfetch cyc" in out and "try15" in out

    def test_unknown_architecture_is_a_usage_error(self, capsys, monkeypatch):
        import repro.cli as cli

        def no_workload(args):
            raise AssertionError("breakdown built the benchmark before parsing --archs")

        monkeypatch.setattr(cli, "_workload", no_workload)
        assert main(["breakdown", "eqntott", "--archs", "bogus"]) == 2
        assert "unknown architectures: bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep"], ["tournament"], ["breakdown", "eqntott"],
])
@pytest.mark.parametrize("archs", ["bogus", "fallthrough,warp", ","])
def test_every_archs_flag_rejects_unknown_architectures(capsys, command, archs):
    assert main(command + ["--archs", archs]) == 2
    err = capsys.readouterr().err
    assert "unknown architectures" in err and "known: fallthrough" in err


class TestSensitivityCommand:
    def test_penalty_sweep(self, capsys):
        assert main(["sensitivity", "eqntott", "penalty", "--scale", "0.02",
                     "--points", "2,8"]) == 0
        out = capsys.readouterr().out
        assert "Mispredict cycles" in out and "Gain %" in out

    def test_width_sweep_defaults(self, capsys):
        assert main(["sensitivity", "eqntott", "width", "--scale", "0.02"]) == 0
        assert "Issue width" in capsys.readouterr().out


class TestSaveLayout:
    def test_align_saves_map(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        assert main(["align", "compress", "--scale", "0.02",
                     "--save-layout", str(path)]) == 0
        assert path.exists()
        assert "alignment map written" in capsys.readouterr().out


class TestPredictCommand:
    def test_text_report(self, capsys):
        assert main(["predict", "eqntott", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "conditional site(s) predicted" in out
        assert "p(taken)" in out
        assert "layout opportunities at meld-blocked sites" in out

    def test_json_report(self, capsys):
        import json

        assert main(["predict", "eqntott", "--scale", "0.05", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["site_count"] == len(payload["sites"])
        for site in payload["sites"]:
            assert 0.0 <= site["p_taken"] <= 1.0
            assert site["frequency"] >= 0.0
        for hint in payload["hints"]:
            assert hint["blocked_reason"]
            assert hint["hot_arm"] in ("taken", "fallthrough")

    def test_compare_grades_against_trace(self, capsys):
        import json

        assert main(["predict", "eqntott", "--scale", "0.05",
                     "--compare", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        compare = payload["compare"]
        assert compare["sites"] > 0
        assert compare["weighted_agreement"] > 0.5

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["predict", "nope"]) == 2


class TestTournamentProfileSource:
    def test_static_renders_recovery_study(self, capsys):
        assert main(["tournament", "--benchmarks", "eqntott",
                     "--scale", "0.08", "--window", "10",
                     "--archs", "fallthrough",
                     "--profile-source", "static"]) == 0
        out = capsys.readouterr().out
        assert "# Profile-free alignment" in out
        assert "recovery" in out

    def test_static_rejects_arena(self, capsys):
        assert main(["tournament", "--profile-source", "static",
                     "--arena"]) == 2

    def test_static_rejects_multiple_algorithms(self, capsys):
        assert main(["tournament", "--profile-source", "static",
                     "--algorithms", "greedy,try15"]) == 2


class TestVerifyCommand:
    def test_verify_reports_claims(self, capsys):
        code = main(["verify", "--scale", "0.05", "--window", "8"])
        out = capsys.readouterr().out
        assert "claims reproduced" in out
        assert "alignment-narrows-gap" in out
        assert code in (0, 1)


class TestHotspotsCommand:
    def test_hotspots_table(self, capsys):
        assert main(["hotspots", "eqntott", "--scale", "0.03", "--top", "3",
                     "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "Per-procedure branch cost" in out and "cmppt" in out


class TestAlignDiff:
    def test_diff_report_printed(self, capsys):
        assert main(["align", "eqntott", "--scale", "0.03", "--diff",
                     "--arch", "likely"]) == 0
        out = capsys.readouterr().out
        assert "blocks moved" in out


class TestCSVOutput:
    def test_table2_csv(self, capsys):
        assert main(["table2", "--benchmarks", "alvinn", "--scale", "0.02",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("benchmark,")
        assert "alvinn" in out

    def test_figure4_csv(self, capsys):
        assert main(["figure4", "--benchmarks", "eqntott", "--scale", "0.02",
                     "--csv"]) == 0
        assert "try15_relative" in capsys.readouterr().out

    def test_table3_csv_to_file(self, tmp_path):
        path = tmp_path / "t3.csv"
        assert main(["table3", "--benchmarks", "alvinn", "--scale", "0.02",
                     "--csv", "-o", str(path)]) == 0
        assert "relative_cpi" in path.read_text()
