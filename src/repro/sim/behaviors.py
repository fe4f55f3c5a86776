"""Deterministic branch behaviours that drive program execution.

A behaviour decides, each time its block executes, which CFG successor the
terminating branch takes.  Behaviours are expressed in terms of the
*original* CFG edge roles — a conditional behaviour returns ``True`` for
the original taken edge and ``False`` for the original fall-through edge —
so the identical behaviour stream replays the identical dynamic block
sequence no matter how the blocks are laid out.  That is how this
reproduction compares an original and an aligned binary "on the same
input", mirroring the paper's use of a single trace per program.

All behaviours are seeded through :meth:`reset` before a run;
:meth:`repro.cfg.Program.reset_behaviors` derives a stable per-site seed,
so repeated runs are bit-identical.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple, Union


class CondBehavior:
    """Base class for conditional-branch behaviours."""

    def reset(self, seed: int) -> None:
        """Restore the behaviour to its initial state for a new run."""
        raise NotImplementedError

    def choose(self) -> bool:
        """Return True to follow the original taken edge, else False."""
        raise NotImplementedError


class AlwaysTaken(CondBehavior):
    """Follows the original taken edge on every execution."""

    def reset(self, seed: int) -> None:
        pass

    def choose(self) -> bool:
        return True


class NeverTaken(CondBehavior):
    """Follows the original fall-through edge on every execution."""

    def reset(self, seed: int) -> None:
        pass

    def choose(self) -> bool:
        return False


class Inverted(CondBehavior):
    """Negates another behaviour's choices.

    Used by transformations that duplicate a block but wire its continue
    path through the *fall-through* edge instead of the taken edge (loop
    unrolling): the inner behaviour still decides continue-vs-exit, the
    wrapper maps that decision onto the copy's edge roles.  Resetting an
    ``Inverted`` view is a no-op — the owner of the shared inner behaviour
    resets it exactly once, keeping the combined decision stream intact.
    """

    def __init__(self, inner: "CondBehavior"):
        self.inner = inner

    def reset(self, seed: int) -> None:
        pass

    def choose(self) -> bool:
        return not self.inner.choose()


class Bernoulli(CondBehavior):
    """Takes the original taken edge with independent probability ``p``.

    This models data-dependent branches; a direct-mapped PHT predicts such
    a branch with accuracy ``max(p, 1-p)`` in the limit, and correlation
    offers no extra help — matching the paper's integer-code behaviour.
    """

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        self.p = p
        self._rng = random.Random(0)

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self) -> bool:
        return self._rng.random() < self.p


class Pattern(CondBehavior):
    """Cycles deterministically through a T/N pattern string.

    Pattern branches are what two-level correlating predictors exploit:
    a global history register that has seen the prefix of the pattern
    predicts the next symbol perfectly, while a per-site two-bit counter
    cannot (e.g. the pattern ``"TTN"`` defeats a saturating counter one
    time in three).
    """

    def __init__(self, pattern: str):
        if not pattern or any(ch not in "TN" for ch in pattern):
            raise ValueError(f"pattern must be a non-empty T/N string, got {pattern!r}")
        self.pattern = pattern
        self._pos = 0

    def reset(self, seed: int) -> None:
        self._pos = 0

    def choose(self) -> bool:
        taken = self.pattern[self._pos] == "T"
        self._pos = (self._pos + 1) % len(self.pattern)
        return taken


TripSpec = Union[int, Tuple[int, int]]


class Loop(CondBehavior):
    """A loop back-edge: continues ``trips - 1`` times, then exits once.

    ``trips`` is either a fixed iteration count or an inclusive ``(lo, hi)``
    range from which a fresh count is drawn (seeded) at each loop
    activation.  ``continue_taken`` says whether the loop-continue
    direction is the original taken edge (the common shape: a backward
    conditional branch at the loop bottom) or the fall-through edge (a
    loop-top exit test).
    """

    def __init__(self, trips: TripSpec, continue_taken: bool = True):
        if isinstance(trips, int):
            if trips < 1:
                raise ValueError(f"trip count must be >= 1, got {trips}")
            self._lo = self._hi = trips
        else:
            lo, hi = trips
            if not 1 <= lo <= hi:
                raise ValueError(f"bad trip range ({lo}, {hi})")
            self._lo, self._hi = lo, hi
        self.continue_taken = continue_taken
        self._rng = random.Random(0)
        self._remaining = 0

    def _draw(self) -> int:
        if self._lo == self._hi:
            return self._lo
        return self._rng.randint(self._lo, self._hi)

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._remaining = self._draw()

    def choose(self) -> bool:
        self._remaining -= 1
        if self._remaining <= 0:
            self._remaining = self._draw()
            return not self.continue_taken
        return self.continue_taken

    def finish_activation(self) -> int:
        """Consume the rest of the current activation, exit included.

        Returns how many times the loop continues before it exits, and
        starts the next activation.  The draws and the final state equal
        those of calling :meth:`choose` until it first returns the exit
        direction.
        """
        continues = max(self._remaining - 1, 0)
        self._remaining = self._draw()
        return continues


class IndirectChoice:
    """Chooses among the targets of an indirect jump.

    Returns an index into the block's indirect out-edge list (declaration
    order).  ``weights`` bias the choice; a ``hot`` index can make one
    target dominate, modelling switch statements with a common case.
    """

    def __init__(self, n_targets: int, weights: Optional[Sequence[float]] = None):
        if n_targets < 1:
            raise ValueError("indirect jump needs at least one target")
        if weights is not None and len(weights) != n_targets:
            raise ValueError("weights length must match target count")
        self.n_targets = n_targets
        self._cum = _cumulative(weights if weights is not None else [1.0] * n_targets)
        self._rng = random.Random(0)

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self) -> int:
        return _pick(self._cum, self._rng.random())


class CalleeChoice:
    """Chooses the callee of an indirect call (virtual dispatch)."""

    def __init__(self, callees: Sequence[str], weights: Optional[Sequence[float]] = None):
        if not callees:
            raise ValueError("indirect call needs at least one callee")
        if weights is not None and len(weights) != len(callees):
            raise ValueError("weights length must match callee count")
        self.callees = list(callees)
        self._cum = _cumulative(weights if weights is not None else [1.0] * len(callees))
        self._rng = random.Random(0)

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self) -> str:
        return self.callees[_pick(self._cum, self._rng.random())]


def _cumulative(weights: Sequence[float]) -> Tuple[float, ...]:
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    acc = 0.0
    out = []
    for w in weights:
        if w < 0:
            raise ValueError("weights must be non-negative")
        acc += w / total
        out.append(acc)
    out[-1] = 1.0
    return tuple(out)


def _pick(cum: Tuple[float, ...], u: float) -> int:
    for idx, edge in enumerate(cum):
        if u < edge:
            return idx
    return len(cum) - 1
