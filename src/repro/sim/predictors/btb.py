"""Branch target buffer simulators (section 3, dynamic methods).

The paper models two Pentium-style configurations — a 64-entry 2-way and
a 256-entry 4-way set-associative BTB — with these rules:

* only *taken* branches are entered; a BTB miss predicts fall-through;
* entries hold the branch target plus a 2-bit saturating counter used to
  predict conditional direction;
* the BTB holds conditional branches, unconditional branches, indirect
  jumps and procedure calls (returns are predicted by the return stack
  shared with every other simulation);
* "taken branches ... found in the BTB do not necessarily cause misfetch
  penalties" — a hit that correctly redirects fetch costs nothing.

Penalty accounting therefore differs from the static/PHT rules: an
unconditional branch or direct call only misfetches on a BTB miss, an
indirect jump only mispredicts when the BTB lacks (or has a stale) target,
and a correctly predicted taken conditional that hits costs nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import trace as tr
from .base import PenaltyCounts
from .ras import ReturnStack


class _Entry:
    """One BTB line: target address + direction counter + LRU stamp."""

    __slots__ = ("target", "counter", "stamp")

    def __init__(self, target: int, counter: int, stamp: int):
        self.target = target
        self.counter = counter
        self.stamp = stamp


class BTB:
    """A set-associative branch target buffer with LRU replacement."""

    def __init__(self, entries: int, assoc: int):
        if entries < 1 or entries % assoc:
            raise ValueError(f"bad BTB geometry {entries} entries / {assoc}-way")
        self.entries = entries
        self.assoc = assoc
        self.sets = entries // assoc
        self._sets: List[Dict[int, _Entry]] = [dict() for _ in range(self.sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def _set_for(self, site: int) -> Dict[int, _Entry]:
        return self._sets[(site >> 2) % self.sets]

    def lookup(self, site: int) -> Optional[_Entry]:
        """Probe the BTB; hits refresh the LRU stamp."""
        self._clock += 1
        entry = self._set_for(site).get(site)
        if entry is None:
            self.misses += 1
            return None
        entry.stamp = self._clock
        self.hits += 1
        return entry

    def insert(self, site: int, target: int, counter: int = 2) -> None:
        """Allocate (or refresh) an entry for a taken branch."""
        bucket = self._set_for(site)
        self._clock += 1
        entry = bucket.get(site)
        if entry is not None:
            entry.target = target
            entry.stamp = self._clock
            return
        if len(bucket) >= self.assoc:
            victim = min(bucket, key=lambda tag: bucket[tag].stamp)
            del bucket[victim]
        bucket[site] = _Entry(target, counter, self._clock)

    def reset(self) -> None:
        """Empty every set and zero the hit/miss counters."""
        self._sets = [dict() for _ in range(self.sets)]
        self._clock = 0
        self.hits = self.misses = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


class BTBSim:
    """Branch architecture built around a BTB plus a return stack."""

    def __init__(self, entries: int, assoc: int, ras_depth: int = 32):
        self.name = f"btb-{entries}x{assoc}"
        self.btb = BTB(entries, assoc)
        self.ras = ReturnStack(ras_depth)
        self.counts = PenaltyCounts()

    # ------------------------------------------------------------------
    def on_event(self, event) -> None:
        """Predict and train on one control-flow event (BTB rules)."""
        kind, site, target, taken = event
        counts = self.counts
        btb = self.btb
        if kind == tr.COND:
            counts.cond_executed += 1
            entry = btb.lookup(site)
            if entry is not None:
                predicted = entry.counter >= 2
                if taken:
                    if entry.counter < 3:
                        entry.counter += 1
                    entry.target = target
                elif entry.counter > 0:
                    entry.counter -= 1
            else:
                predicted = False
                if taken:
                    btb.insert(site, target)
            if predicted == taken:
                counts.cond_correct += 1
                # A predicted-taken hit redirects fetch from the BTB:
                # no misfetch.  A correct not-taken costs nothing either.
            else:
                counts.mispredicts += 1
        elif kind == tr.UNCOND:
            if btb.lookup(site) is None:
                counts.misfetches += 1
                btb.insert(site, target)
        elif kind == tr.CALL:
            if btb.lookup(site) is None:
                counts.misfetches += 1
                btb.insert(site, target)
            self.ras.push(site + 4)
        elif kind == tr.ICALL:
            entry = btb.lookup(site)
            if entry is None:
                counts.mispredicts += 1
                btb.insert(site, target)
            elif entry.target != target:
                counts.mispredicts += 1
                entry.target = target
            self.ras.push(site + 4)
        elif kind == tr.INDIRECT:
            entry = btb.lookup(site)
            if entry is None:
                counts.mispredicts += 1
                btb.insert(site, target)
            elif entry.target != target:
                counts.mispredicts += 1
                entry.target = target
        else:  # RET
            if not self.ras.pop_predict(target):
                counts.mispredicts += 1

    # ------------------------------------------------------------------
    @property
    def bep(self) -> int:
        return self.counts.bep

    def reset(self) -> None:
        """Restore the BTB, return stack and counters to power-up state."""
        self.btb.reset()
        self.ras.reset()
        self.counts = PenaltyCounts()


def pentium_btb(ras_depth: int = 32) -> BTBSim:
    """The 256-entry 4-way configuration used by the Intel Pentium."""
    return BTBSim(256, 4, ras_depth)


def small_btb(ras_depth: int = 32) -> BTBSim:
    """The paper's 64-entry 2-way configuration."""
    return BTBSim(64, 2, ras_depth)
