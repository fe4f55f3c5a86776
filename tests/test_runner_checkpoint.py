"""Checkpoint/resume: the fabric queue directory ``--checkpoint`` names.

A checkpointed suite run goes through the fabric, so its checkpoint is
the durable queue (``queue.json`` header, one record per unit under
``units/``, checksummed payloads under ``results/``).  These tests hold
that queue to the checkpoint contract: results survive a reopen, a
queue from another configuration, format or schema is refused, a torn
record costs only its own unit, and only failed units re-run.
"""

import json

import pytest

from repro.fabric import FabricConfig, load_queue_dir
from repro.fabric.scheduler import (
    SCHEMA_VERSION,
    FabricError,
    QueueMismatch,
    config_fingerprint,
)
from repro.runner import (
    ArtifactStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    run_suite_resilient,
)

ARCHS = ("fallthrough",)
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)


def checkpointed(names, path, resume=False, scale=0.02, **switches):
    """One suite run checkpointed to the queue directory ``path``."""
    return run_suite_resilient(
        names, scale=scale, archs=ARCHS, config=RunnerConfig(**switches),
        fabric=FabricConfig(workers=1, retry=FAST_RETRY, queue_dir=path,
                            resume=resume),
    )


def crash(benchmark):
    return FaultPlan((FaultSpec(benchmark, "align", "crash", times=99),))


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_differs_on_any_value(self):
        assert config_fingerprint({"scale": 0.02}) != config_fingerprint({"scale": 0.05})


class TestRoundTrip:
    def test_results_survive_reopen(self, tmp_path):
        path = tmp_path / "q"
        checkpointed(["compress"], path)
        _header, records, corrupt = load_queue_dir(path)
        assert corrupt == []
        assert [r.state for r in records.values()] == ["done"]
        store = ArtifactStore(path / "results")
        assert all(problem is None for problem in store.verify_all().values())

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "q"
        assert checkpointed(["alvinn"], path, faults=crash("alvinn")).partial
        # The failed unit re-runs and succeeds; a second resume then
        # finds it done — the latest transition is what the queue keeps.
        assert checkpointed(["alvinn"], path, resume=True).executed == ["alvinn"]
        again = checkpointed(["alvinn"], path, resume=True)
        assert again.executed == [] and again.skipped == ["alvinn"]

    def test_missing_file_starts_fresh(self, tmp_path):
        result = checkpointed(["compress"], tmp_path / "new", resume=True)
        assert result.skipped == [] and result.executed == ["compress"]


class TestRejection:
    def _queue(self, tmp_path):
        path = tmp_path / "q"
        checkpointed(["compress"], path)
        return path

    def test_mismatched_fingerprint_refused(self, tmp_path):
        # A per-unit switch that changes results changes the fingerprint.
        path = tmp_path / "q"
        checkpointed(["eqntott"], path, meld=True)
        with pytest.raises(QueueMismatch, match="different run configuration"):
            checkpointed(["eqntott"], path, resume=True)

    def test_wrong_format_refused(self, tmp_path):
        path = self._queue(tmp_path)
        (path / "queue.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(FabricError, match="not a fabric queue"):
            checkpointed(["compress"], path, resume=True)

    def test_future_schema_refused(self, tmp_path):
        path = self._queue(tmp_path)
        header = json.loads((path / "queue.json").read_text())
        header["schema"] = SCHEMA_VERSION + 1
        (path / "queue.json").write_text(json.dumps(header))
        with pytest.raises(FabricError, match="unsupported queue schema"):
            checkpointed(["compress"], path, resume=True)

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        # A torn unit record costs that unit's progress, never the run.
        path = tmp_path / "q"
        checkpointed(["alvinn", "compress"], path)
        torn = next(p for p in (path / "units").glob("*.json") if "alvinn" in p.name)
        torn.write_text(torn.read_text()[:40])
        result = checkpointed(["alvinn", "compress"], path, resume=True)
        assert not result.partial
        assert result.skipped == ["compress"] and result.executed == ["alvinn"]
        assert [p.name for p in (path / "quarantine").iterdir()] == [torn.name]

    def test_malformed_interior_line_rejected(self, tmp_path):
        path = self._queue(tmp_path)
        (path / "queue.json").write_text("{ nope")
        with pytest.raises(FabricError, match="unreadable queue manifest"):
            checkpointed(["compress"], path, resume=True)


class TestSuiteResume:
    """The acceptance scenario: resume re-executes only the failed unit."""

    def test_resume_skips_completed_and_reruns_failed(self, tmp_path):
        path = tmp_path / "suite"
        first = checkpointed(["alvinn", "compress"], path, faults=crash("alvinn"))
        assert first.partial
        assert [f.benchmark for f in first.failures] == ["alvinn"]
        assert [e.name for e in first.results] == ["compress"]

        second = checkpointed(["alvinn", "compress"], path, resume=True)
        assert not second.partial
        assert second.executed == ["alvinn"]
        assert second.skipped == ["compress"]
        assert [e.name for e in second.results] == ["alvinn", "compress"]

    def test_resume_with_different_config_refused(self, tmp_path):
        path = tmp_path / "suite"
        checkpointed(["compress"], path)
        with pytest.raises(QueueMismatch):
            checkpointed(["compress"], path, resume=True, scale=0.05)

    def test_restored_results_match_fresh_run(self, tmp_path):
        path = tmp_path / "suite"
        fresh = checkpointed(["compress"], path)
        resumed = checkpointed(["compress"], path, resume=True)
        assert resumed.executed == []
        assert resumed.results[0].outcomes == fresh.results[0].outcomes
