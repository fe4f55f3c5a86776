"""Host-speed yardstick: report timings in seconds of a fixed nominal host.

On a shared VM the host's speed drifts by up to ~2x, in phases that last
from fractions of a second to minutes, and CPU time tracks wall time
through them, so raw seconds do not repeat.  A fixed pure-Python loop
that imports nothing from ``repro`` measures the speed: a full run of it
sits between timed calls, and a short slice of it runs on ``SIGALRM``
every ``TICK_S`` during each call, in the same process.  A call's
duration, less the slices inside it, is multiplied by the nominal
per-round time over the mean per-round time of the runs around and
inside it.  The result reads as the seconds the call would take on a
host where a full yardstick run takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Full yardstick duration on the nominal host, in seconds.
NOMINAL_S = 0.020
#: Loop rounds of a full yardstick run and of one in-call slice.
ROUNDS = 60_000
SLICE_ROUNDS = 6_000
#: Interval between in-call slices.
TICK_S = 0.1


def yardstick(rounds: int = ROUNDS) -> float:
    """Run the fixed loop for ``rounds`` rounds; return its wall seconds."""
    start = time.perf_counter()
    table: dict = {}
    tail = []
    total = 0
    for i in range(rounds):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        if i & 3:
            tail.append(key)
        else:
            total += tail[-1] if tail else 0
    return time.perf_counter() - start


class HostClock:
    """Times calls and scales each to the nominal host.

    ``slices`` keeps the ``(start, seconds)`` of every in-call slice, so
    spans measured inside a call can leave them out too.
    """

    def __init__(self) -> None:
        self.slices: List[Tuple[float, float]] = []
        self._before = yardstick() / ROUNDS

    def _tick(self, _signum: int, _frame: object) -> None:
        start = time.perf_counter()
        self.slices.append((start, yardstick(SLICE_ROUNDS)))

    def time(self, fn: Callable[[], T], scale: bool = True) -> Tuple[T, float, float]:
        """Run ``fn``; return ``(result, raw seconds, nominal-host factor)``.

        Raw seconds exclude the yardstick slices taken during the call.
        Multiply any duration measured inside the call by the factor to
        express it in nominal-host seconds.  With ``scale=False`` the
        call runs bare and the factor is 1.
        """
        if not scale:
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start, 1.0
        first = len(self.slices)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [(at, seconds) for at, seconds in self.slices[first:] if at < end]
        raw = end - start - sum(seconds for _at, seconds in inside)
        after = yardstick() / ROUNDS
        per_round = [(self._before + after) / 2]
        per_round += [seconds / SLICE_ROUNDS for _at, seconds in inside]
        self._before = after
        factor = (NOMINAL_S / ROUNDS) / (sum(per_round) / len(per_round))
        return result, raw, factor
