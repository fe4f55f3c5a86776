"""Fault injection and retry: specs, determinism, healing, corruption."""

import random

import pytest

from repro.core import GreedyAligner
from repro.isa.encoder import link
from repro.oracle import alignment_layouts
from repro.profiling import profile_program
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    TransientError,
    parse_fault_spec,
    run_figure4_resilient,
    run_suite_resilient,
)
from repro.runner.faults import FaultInjector, _retarget_transfer
from repro.runner.retry import call_with_retry, retry_rng
from repro.workloads import generate_benchmark

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


class TestSpecParsing:
    def test_parses_three_part_spec(self):
        spec = parse_fault_spec("alvinn:align:crash")
        assert spec == FaultSpec("alvinn", "align", "crash", times=1)

    def test_parses_repeat_count(self):
        assert parse_fault_spec("alvinn:profile:transient:4").times == 4

    @pytest.mark.parametrize("text", [
        "alvinn", "alvinn:align", "a:b:c:d:e", "alvinn:align:crash:many",
        "alvinn:nosuchstage:crash", "alvinn:align:nosuchkind",
    ])
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)


class TestInjector:
    def test_fault_heals_after_times_attempts(self):
        plan = FaultPlan((FaultSpec("b", "align", "transient", times=2),))
        injector = FaultInjector(plan)
        for attempt in (1, 2):
            with pytest.raises(TransientError):
                injector.fire("align", "b", attempt)
        injector.fire("align", "b", 3)  # healed

    def test_wildcard_matches_every_benchmark(self):
        injector = FaultInjector(FaultPlan((FaultSpec("*", "align", "crash"),)))
        with pytest.raises(RuntimeError):
            injector.fire("align", "anything", 1)

    def test_other_stage_untouched(self):
        injector = FaultInjector(FaultPlan((FaultSpec("b", "align", "crash"),)))
        injector.fire("simulate", "b", 1)

    def test_crash_annotates_stage(self):
        injector = FaultInjector(FaultPlan((FaultSpec("b", "align", "crash"),)))
        with pytest.raises(RuntimeError) as info:
            injector.fire("align", "b", 1)
        assert info.value.stage == "align"

    def test_corruption_is_deterministic(self):
        program = generate_benchmark("eqntott", 0.02)
        plan = FaultPlan((FaultSpec("eqntott", "profile", "corrupt-profile"),), seed=7)
        corrupted = [
            FaultInjector(plan).corrupt_profile(
                "eqntott", 1, profile_program(program, seed=0)
            )
            for _ in range(2)
        ]
        assert corrupted[0] == corrupted[1]


class TestRetry:
    def test_transient_then_succeed(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise TransientError("not yet")
            return "ok"

        assert call_with_retry(flaky, FAST_RETRY, sleep=lambda _s: None) == "ok"
        assert calls == [1, 2, 3]

    def test_exhausted_attempts_raise(self):
        def always(attempt):
            raise TransientError("never")

        with pytest.raises(TransientError):
            call_with_retry(always, FAST_RETRY, sleep=lambda _s: None)

    def test_non_transient_propagates_immediately(self):
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise ValueError("bug")

        with pytest.raises(ValueError):
            call_with_retry(broken, FAST_RETRY, sleep=lambda _s: None)
        assert calls == [1]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        a = policy.delay(1, retry_rng(0, "x:1"))
        b = policy.delay(1, retry_rng(0, "x:1"))
        c = policy.delay(1, retry_rng(0, "y:1"))
        assert a == b
        assert a != c


class TestSuiteLevelFaults:
    def test_transient_fault_recovers_in_suite(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",),
            config=RunnerConfig(
                retry=FAST_RETRY,
                faults=FaultPlan((FaultSpec("compress", "align", "transient", times=2),)),
            ),
        )
        assert not result.partial
        assert [e.name for e in result.results] == ["compress"]

    def test_corrupted_profile_is_rejected_not_computed(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",),
            config=RunnerConfig(
                retry=FAST_RETRY,
                faults=FaultPlan((FaultSpec("compress", "profile", "corrupt-profile"),)),
            ),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.kind == "validation"
        assert failure.stage == "profile"
        assert failure.attempts == 1  # validation errors are never retried


class TestAlignerFailure:
    @pytest.mark.parametrize("run", [run_suite_resilient, run_figure4_resilient])
    def test_an_aligner_exception_fails_its_unit_at_the_align_stage(self, run, monkeypatch):
        # The aligners run inside the simulate stage's experiment; the
        # failure still names the stage that raised.
        def boom(self, proc, profile):
            raise RuntimeError("greedy exploded")

        monkeypatch.setattr(GreedyAligner, "build_chains", boom)
        (failure,) = run(["eqntott"], scale=0.05).failures
        assert (failure.stage, failure.kind, failure.attempts) == ("align", "error", 1)
        assert failure.message == "RuntimeError: greedy exploded"


class _CountingRandom(random.Random):
    """A seeded generator that counts its ``randrange`` draws."""

    def __init__(self, seed: str):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class TestLayoutFaults:
    @pytest.fixture(scope="class")
    def li(self):
        program = generate_benchmark("li", 0.05)
        profile = profile_program(program, seed=0)
        return program, profile, alignment_layouts(program, profile)

    def test_mutate_layout_always_changes_the_linked_image(self, li):
        """li's disptree layout first draws a zero-size block that starts
        where the right target starts; that probe would link unchanged."""
        _program, profile, layouts = li
        plan = FaultPlan((FaultSpec("li", "layout", "mutate-layout"),))
        for label, layout in layouts.items():
            mutated = FaultInjector(plan).mutate_layout("li", 1, label, layout, profile)
            assert link(mutated).disassemble() != link(layout).disassemble(), label

    def test_only_a_vacuous_draw_is_made_again(self, li):
        """A first draw that changes the image is kept as it was drawn."""
        _program, profile, layouts = li
        draws = {}
        for label, layout in layouts.items():
            rng = _CountingRandom(f"repro-fault:0:li:{label}:mutate-layout")
            assert _retarget_transfer(layout, profile, rng) is not None
            draws[label] = rng.draws
        assert draws.pop("disptree") > 1
        assert set(draws.values()) == {1}
