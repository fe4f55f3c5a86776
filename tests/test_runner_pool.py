"""Retry backoff: full jitter and the cumulative retry-backoff budget."""

from __future__ import annotations

import pytest

from repro.runner.errors import TransientError
from repro.runner.retry import RetryPolicy, call_with_retry, retry_rng
from repro.runner.runner import RunnerConfig, UnitTask, _run_inline


class TestFullJitter:
    def test_jittered_delay_is_uniform_below_ceiling(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=8.0,
                             jitter=1.0)
        rng = retry_rng(0, "unit:1")
        draws = [policy.delay(3, rng) for _ in range(200)]
        assert all(0.0 <= d <= 4.0 for d in draws)
        assert min(draws) < 1.0 < max(draws)  # actually spread, not pinned

    def test_partial_jitter_keeps_a_floor(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.25)
        rng = retry_rng(0, "unit:1")
        assert all(0.75 <= policy.delay(1, rng) <= 1.0 for _ in range(100))

    def test_no_rng_is_the_deterministic_ceiling(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=8.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]


class TestRetryBudget:
    def test_budget_abandons_retries_with_attempts_left(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.0, max_total_delay=2.5)
        sleeps = []
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise TransientError(f"attempt {attempt}")

        with pytest.raises(TransientError, match="attempt 3"):
            call_with_retry(fn, policy, sleep=sleeps.append)
        # Two 1s sleeps fit the 2.5s budget; the third would not.
        assert calls == [1, 2, 3]
        assert sleeps == [1.0, 1.0]

    def test_unlimited_budget_runs_out_attempts(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.0, max_total_delay=None)
        sleeps = []
        with pytest.raises(TransientError):
            call_with_retry(
                lambda attempt: (_ for _ in ()).throw(TransientError("x")),
                policy, sleep=sleeps.append)
        assert sleeps == [1.0, 1.0]

    def test_inline_runner_respects_the_budget(self, monkeypatch):
        # One benchmark that always fails transiently: with a zero budget
        # the inline runner must not retry at all.
        import repro.runner.runner as runner_mod

        attempts = []

        def exploding_unit(task):
            attempts.append(task.attempt)
            raise TransientError("injected")

        monkeypatch.setattr(runner_mod, "execute_unit", exploding_unit)
        failures = []
        config = RunnerConfig(
            fail_fast=False,
            retry=RetryPolicy(max_attempts=5, base_delay=1000.0, jitter=0.0,
                              max_total_delay=0.0),
        )
        task = UnitTask(kind="experiment", benchmark="eqntott", scale=0.02,
                        seed=0, window=15, archs=("btfnt",))
        _run_inline([task], config, lambda *_: None, failures.append)
        assert attempts == [1]  # a 1000s sleep never fit the 0s budget
        assert len(failures) == 1 and failures[0].attempts == 1
