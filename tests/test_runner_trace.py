"""The runner's trace stage: caching, corrupt-trace faults, replay checks."""

import pytest

from repro.cli import main
from repro.runner import FaultPlan, FaultSpec, RunnerConfig, run_suite_resilient
from repro.runner.store import ArtifactStore
from repro.sim.decisions import (
    capture_decisions,
    encode_trace,
    is_trace_key,
    trace_fingerprint,
    trace_key,
)
from repro.workloads import generate_benchmark


def _run(tmp_path=None, **kwargs):
    config = RunnerConfig(fail_fast=False, **kwargs)
    return run_suite_resilient(["eqntott"], scale=0.1, config=config)


class TestMeldedTraces:
    """A melded and a plain run of one workload never share a cached trace."""

    @pytest.mark.parametrize("order", [(True, False), (False, True)])
    def test_cache_keeps_melded_and_plain_traces_apart(self, tmp_path, order):
        def run(meld, cache=None):
            config = RunnerConfig(fail_fast=True, meld=meld, trace_cache=cache)
            return run_suite_resilient(["eqntott"], scale=0.02, config=config).results

        uncached = {meld: run(meld) for meld in order}
        assert uncached[True] != uncached[False]
        for meld in order:
            assert run(meld, tmp_path / "traces") == uncached[meld]


class TestTraceCache:
    def test_cache_populated_and_reused(self, tmp_path):
        cache = tmp_path / "traces"
        first = _run(trace_cache=cache)
        assert not first.failures
        store = ArtifactStore(cache)
        keys = [k for k in store.keys() if is_trace_key(k)]
        assert keys == [trace_key("eqntott", trace_fingerprint("eqntott", 0.1, 0))]

        second = _run(trace_cache=cache)
        assert not second.failures
        assert second.results[0] == first.results[0]

    def test_replay_check_threads_through(self):
        result = _run(replay_check=True)
        assert not result.failures

    def test_replay_check_env_var_reaches_the_runner(self, monkeypatch):
        from repro.sim import metrics

        checked = []
        legacy = metrics._simulate_execute

        def recording(*args, **kwargs):
            checked.append(args)
            return legacy(*args, **kwargs)

        monkeypatch.setattr(metrics, "_simulate_execute", recording)
        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        result = _run()
        assert not result.failures
        assert checked

    def test_no_cache_still_replays(self):
        result = _run()
        assert not result.failures


class TestCorruptTraceFault:
    def test_unit_recovers_transparently(self, tmp_path):
        """Unlike corrupt-artifact (which fails the unit), a corrupted
        trace cache costs a re-capture, never the benchmark: the damaged
        entry is quarantined and the unit SUCCEEDS."""
        cache = tmp_path / "traces"
        plan = FaultPlan((FaultSpec("eqntott", "trace", "corrupt-trace"),))
        result = _run(trace_cache=cache, faults=plan)
        assert not result.failures
        store = ArtifactStore(cache)
        assert any(store.quarantine_dir.iterdir())
        # And the cache was re-primed with a good entry afterwards.
        key = trace_key("eqntott", trace_fingerprint("eqntott", 0.1, 0))
        assert key in store
        store.verify(key)

    def test_result_unaffected_by_fault(self, tmp_path):
        plan = FaultPlan((FaultSpec("eqntott", "trace", "corrupt-trace"),))
        faulted = _run(trace_cache=tmp_path / "traces", faults=plan)
        clean = _run(trace_cache=tmp_path / "clean")
        assert faulted.results[0] == clean.results[0]

    def test_spec_parses(self):
        from repro.runner import parse_fault_spec

        spec = parse_fault_spec("eqntott:trace:corrupt-trace")
        assert (spec.stage, spec.kind) == ("trace", "corrupt-trace")


class TestCliValidation:
    def test_corrupt_trace_requires_trace_cache(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott",
            "--inject", "eqntott:trace:corrupt-trace",
        ])
        assert code == 2
        assert "--trace-cache" in capsys.readouterr().err

    def test_doctor_store_flags_stale_trace(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path)
        program = generate_benchmark("eqntott", 0.1)
        trace = capture_decisions(program, seed=0, workload="eqntott", scale=0.1)
        good_key = trace_key("eqntott", trace_fingerprint("eqntott", 0.1, 0))
        store.put(good_key, encode_trace(trace))
        stale = encode_trace(trace)
        stale["schema"] = 0
        store.put("trace/eqntott@0000000000000000", stale)

        code = main(["doctor", "--store", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale-schema" in out
        assert "1/2 artifacts intact" in out

        code = main(["doctor", "--store", str(tmp_path), "--repair"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quarantined" in out
        # After repair only the good trace remains addressable.
        assert good_key in ArtifactStore(tmp_path).keys()
        assert "trace/eqntott@0000000000000000" not in ArtifactStore(tmp_path)
