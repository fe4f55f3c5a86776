"""Suite-level resilience: isolation, timeouts, partial reports, legacy mode."""

import pytest

from repro.analysis import run_suite_experiment
from repro.fabric import FabricConfig
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    run_figure4_resilient,
    run_suite_resilient,
    render_failure_table,
    render_partial_banner,
)

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
ARCHS = ("fallthrough",)


def crash_plan(benchmark, stage="align", kind="crash", times=99):
    return FaultPlan((FaultSpec(benchmark, stage, kind, times=times),))


class TestPartialRuns:
    """One poisoned benchmark must not take down the suite."""

    def test_poisoned_benchmark_yields_partial_report(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("alvinn")),
        )
        assert result.partial
        assert [e.name for e in result.results] == ["compress"]
        failure = result.failures[0]
        assert failure.benchmark == "alvinn"
        assert failure.stage == "align"
        assert failure.kind == "error"

    def test_clean_run_is_not_partial(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, config=RunnerConfig(),
        )
        assert not result.partial
        assert result.executed == ["compress"]

    def test_failure_table_and_banner(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("alvinn")),
        )
        table = render_failure_table(result.failures)
        assert "alvinn" in table and "align" in table
        banner = render_partial_banner(result, total=2)
        assert banner == "partial: true — 1 of 2 benchmark(s) failed; 1 completed"

    def test_figure4_units_share_the_machinery(self):
        result = run_figure4_resilient(
            ["eqntott", "compress"], scale=0.02,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("eqntott")),
        )
        assert result.partial
        assert [r.name for r in result.results] == ["compress"]
        assert result.results[0].try15_relative > 0


class TestIsolation:
    """Fabric workers confine crashes and hangs to one benchmark."""

    def test_hard_crash_is_confined_to_its_benchmark(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(faults=crash_plan("alvinn", kind="hard-crash")),
            fabric=FabricConfig(workers=1, retry=FAST_RETRY),
        )
        assert result.partial
        assert result.failures[0].benchmark == "alvinn"
        # Every attempt killed its worker: the fabric quarantines the
        # unit as poison once it has crashed two distinct workers.
        assert result.failures[0].stage == "fabric"
        assert result.failures[0].kind == "poison"
        assert [e.name for e in result.results] == ["compress"]

    def test_hard_crash_recovers_when_fault_heals(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(
                faults=crash_plan("compress", kind="hard-crash", times=1),
            ),
            fabric=FabricConfig(workers=1, retry=FAST_RETRY),
        )
        assert not result.partial
        assert [e.name for e in result.results] == ["compress"]

    def test_timeout_kills_hung_benchmark(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(faults=crash_plan("alvinn", kind="hang", times=99)),
            fabric=FabricConfig(timeout=5.0, retry=FAST_RETRY),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.benchmark == "alvinn"
        assert failure.kind == "timeout"
        assert "wall-clock" in failure.message
        assert [e.name for e in result.results] == ["compress"]

    def test_isolated_results_match_inline(self):
        inline = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, config=RunnerConfig(),
        )
        isolated = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, config=RunnerConfig(),
            fabric=FabricConfig(workers=1),
        )
        assert inline.results[0].outcomes == isolated.results[0].outcomes

    def test_inject_and_retries_reach_fabric_units(self):
        # A transient fault healing on attempt 2 needs a second attempt:
        # granted by --retries 2, denied by --retries 1, and a plan
        # stamped only on the tasks must still fire in the workers.
        plan = crash_plan("compress", kind="transient", times=1)
        for attempts, partial in ((2, False), (1, True)):
            result = run_suite_resilient(
                ["compress"], scale=0.02, archs=ARCHS,
                config=RunnerConfig(faults=plan),
                fabric=FabricConfig(workers=1, retry=RetryPolicy(
                    max_attempts=attempts, base_delay=0.0, max_delay=0.0,
                    jitter=0.0)),
            )
            assert result.partial is partial
            if partial:
                assert result.failures[0].kind == "transient"


class TestLegacyMode:
    """The library drivers keep the old fail-fast contract."""

    def test_run_suite_experiment_raises_on_failure(self):
        with pytest.raises(RuntimeError, match="injected crash"):
            run_suite_experiment(
                ["alvinn"], scale=0.02, archs=ARCHS,
                runner=RunnerConfig(fail_fast=True, faults=crash_plan("alvinn")),
            )

    def test_run_suite_experiment_returns_plain_list(self):
        experiments = run_suite_experiment(["compress"], scale=0.02, archs=ARCHS)
        assert [e.name for e in experiments] == ["compress"]
        assert "orig" in experiments[0].outcomes
