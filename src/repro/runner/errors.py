"""The runner's structured exception taxonomy.

Every failure the resilient runner handles is classified into one of
three families, because the *response* differs per family:

* :class:`TransientError` — the unit may succeed if simply re-run
  (injected flakiness, resource contention); the runner retries it with
  exponential backoff.
* :class:`ValidationError` — an invariant of the pipeline's data was
  violated (non-conserved profile flow, a layout that is not a
  permutation, an address map with holes).  Retrying cannot help; the
  unit is failed immediately and reported.
* :class:`FatalError` — everything else that ends a unit for good:
  corrupt payloads, bad queues, broken fault plans.

Worker crashes and wall-clock timeouts happen outside the unit, so they
are not exceptions at all: the fabric records them on the unit's queue
record (kinds ``crash``, ``poison`` and ``timeout``).

Exceptions raised inside a benchmark unit carry a best-effort
``stage`` attribute (set via :func:`annotate_stage`) naming the pipeline
stage — ``generate``, ``profile``, ``align``, ``simulate`` — that was
running when they were raised.
"""

from __future__ import annotations

from typing import Optional


class RunnerError(Exception):
    """Base class of all runner-raised errors."""

    #: Pipeline stage active when the error was raised (best effort).
    stage: Optional[str] = None


class TransientError(RunnerError):
    """A failure that may clear on retry (the only retryable class)."""


class FatalError(RunnerError):
    """A failure that ends the unit for good; never retried."""


class ValidationError(RunnerError):
    """A pipeline invariant was violated; retrying cannot help."""


class CheckpointError(FatalError):
    """A checkpointed result payload is unreadable or malformed."""


def annotate_stage(exc: BaseException, stage: str) -> BaseException:
    """Record the pipeline stage on an exception (survives pickling)."""
    if getattr(exc, "stage", None) is None:
        try:
            exc.stage = stage  # type: ignore[attr-defined]
        except AttributeError:  # exceptions with __slots__
            pass
    return exc


def stage_of(exc: BaseException, default: str = "unknown") -> str:
    """The pipeline stage an exception was annotated with."""
    stage = getattr(exc, "stage", None)
    return stage if isinstance(stage, str) else default


def classify(exc: BaseException) -> str:
    """Map an exception to a failure-kind label used in reports."""
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, ValidationError):
        return "validation"
    # Damaged profile bytes are a data-integrity violation, not a code
    # bug: classified with the validation family so the runner fails the
    # unit immediately instead of retrying.  Imported lazily to keep
    # ``runner.errors`` free of package dependencies.
    from ..profiling.storage import ProfileCorruptError

    if isinstance(exc, ProfileCorruptError):
        return "validation"
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, FatalError):
        return "fatal"
    return "error"
