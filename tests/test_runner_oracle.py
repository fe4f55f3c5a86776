"""Runner/CLI integration of the differential oracle and artifact store."""

import json

import pytest

from repro.cli import main
from repro.fabric import FabricConfig
from repro.runner import (
    ArtifactStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    run_suite_resilient,
)

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
ARCHS = ("fallthrough", "btfnt")
SCALE = 0.02
WINDOW = 6


def layout_plan(benchmark, kind):
    return FaultPlan((FaultSpec(benchmark, "layout", kind),))


class TestOracleInRunner:
    def test_clean_run_passes_oracle(self):
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(oracle=True),
        )
        assert not result.partial
        assert result.executed == ["compress"]

    @pytest.mark.parametrize("kind", ["mutate-layout", "flip-sense"])
    def test_layout_fault_is_flagged_as_validation(self, kind):
        result = run_suite_resilient(
            ["compress", "eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(
                oracle=True, retry=FAST_RETRY,
                faults=layout_plan("eqntott", kind),
            ),
        )
        assert result.partial
        assert [e.name for e in result.results] == ["compress"]
        failure = result.failures[0]
        assert failure.benchmark == "eqntott"
        assert failure.stage == "oracle"
        assert failure.kind == "validation"
        assert failure.attempts == 1  # divergences are never retried
        assert "not trace-isomorphic" in failure.message

    def test_layout_fault_invisible_without_oracle(self):
        """Without the oracle the mutation goes unobserved — that IS the point."""
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(oracle=False, faults=layout_plan("compress", "flip-sense")),
        )
        assert not result.partial


class TestStoreInRunner:
    def test_results_are_persisted_and_checksummed(self, tmp_path):
        store_dir = tmp_path / "art"
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
        )
        assert not result.partial
        store = ArtifactStore(store_dir)
        assert store.keys() == ["experiment/compress"]
        payload = store.load("experiment/compress")
        assert payload["data"]["name"] == "compress"
        assert store.verify_all()["experiment/compress"] is None

    def test_corrupt_artifact_fault_fails_unit_at_store_stage(self, tmp_path):
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(
                store=tmp_path / "art", retry=FAST_RETRY,
                faults=FaultPlan((FaultSpec("compress", "store", "corrupt-artifact"),)),
            ),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.stage == "store"
        assert failure.kind == "validation"
        # The garbled artifact was quarantined, not left in place.
        store = ArtifactStore(tmp_path / "art")
        assert "experiment/compress" not in store
        assert list(store.quarantine_dir.iterdir())

    def _checkpointed(self, names, store_dir, ckpt, resume=False):
        return run_suite_resilient(
            names, scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
            fabric=FabricConfig(workers=1, queue_dir=ckpt, resume=resume),
        )

    def test_resume_reruns_only_quarantined_benchmark(self, tmp_path):
        store_dir = tmp_path / "art"
        ckpt = tmp_path / "ckpt"
        names = ["compress", "eqntott"]
        first = self._checkpointed(names, store_dir, ckpt)
        assert not first.partial and len(first.executed) == 2

        # Hand-corrupt eqntott's checkpointed payload and repair: it is
        # quarantined, so the queue no longer holds a result for it.
        results = ArtifactStore(ckpt / "results")
        key = next(k for k in results.keys() if "/eqntott/" in k)
        path = results.path_for(key)
        path.write_bytes(path.read_bytes()[:25] + b"GARBAGE")
        report = results.repair()
        assert report.quarantined == [key]

        second = self._checkpointed(names, store_dir, ckpt, resume=True)
        assert not second.partial
        assert second.skipped == ["compress"]
        assert second.executed == ["eqntott"]
        # The store is whole again.
        assert ArtifactStore(store_dir).verify_all()["experiment/eqntott"] is None

    def test_resume_detects_corruption_without_explicit_repair(self, tmp_path):
        """--resume itself verifies payloads; repair is not a prerequisite."""
        store_dir = tmp_path / "art"
        ckpt = tmp_path / "ckpt"
        self._checkpointed(["compress", "eqntott"], store_dir, ckpt)
        # A damaged --store copy is rewritten from the queue's verified
        # payload: nothing re-runs.
        store = ArtifactStore(store_dir)
        path = store.path_for("experiment/compress")
        path.write_text(path.read_text().replace(":", ";", 1))
        # A damaged queue payload re-runs exactly its benchmark.
        results = ArtifactStore(ckpt / "results")
        queued = results.path_for(next(k for k in results.keys() if "/eqntott/" in k))
        queued.write_text(queued.read_text().replace(":", ";", 1))
        second = self._checkpointed(["compress", "eqntott"], store_dir, ckpt, resume=True)
        assert not second.partial
        assert second.skipped == ["compress"]
        assert second.executed == ["eqntott"]
        assert all(problem is None for problem in store.verify_all().values())


class TestCLI:
    def test_table3_oracle_inject_exits_partial(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--window", str(WINDOW), "--oracle",
            "--inject", "eqntott:layout:mutate-layout",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "oracle" in err and "validation" in err

    def test_layout_inject_requires_oracle_flag(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--inject", "eqntott:layout:flip-sense",
        ])
        assert code == 2

    def test_corrupt_artifact_inject_requires_store(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--inject", "eqntott:store:corrupt-artifact",
        ])
        assert code == 2

    def test_doctor_store_audit_and_repair(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "art")
        bad = store.put("bad", {"x": 1})
        bad.write_text("{}")
        store.put("good", {"y": 2})

        assert main(["doctor", "--store", str(tmp_path / "art")]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bad" in out

        assert main(["doctor", "--store", str(tmp_path / "art"), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined corrupt artifact: bad" in out

        assert main(["doctor", "--store", str(tmp_path / "art")]) == 0

    def test_doctor_repair_without_store_is_usage_error(self, capsys):
        assert main(["doctor", "compress", "--repair"]) == 2

    def test_doctor_without_benchmark_or_store_is_usage_error(self, capsys):
        assert main(["doctor"]) == 2
