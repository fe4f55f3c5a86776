"""Pattern history table predictors (section 3, dynamic methods).

Two 4096-entry tables of 2-bit saturating counters (1 KB of state each):

* ``DirectMappedPHT`` — indexed by the branch site address alone.
* ``CorrelationPHT`` — the degenerate two-level scheme of Pan et al. with
  McFarling's improvement: a 12-bit global history register of recent
  conditional outcomes XORed with the site address (gshare), "the variant
  that McFarling found to be the most accurate".

PHTs predict only conditional-branch *direction*; "these methods do
nothing for misfetch penalties", so correctly predicted taken branches
still pay the one-cycle misfetch, like the static architectures.
"""

from __future__ import annotations

from .base import BranchArchSim
from .counters import CounterTable

#: Table size used throughout the paper (4096 two-bit counters = 1 KB).
PAPER_PHT_ENTRIES = 4096


class DirectMappedPHT(BranchArchSim):
    """A per-site table of two-bit counters."""

    name = "pht-direct"

    def __init__(self, entries: int = PAPER_PHT_ENTRIES, ras_depth: int = 32):
        super().__init__(ras_depth)
        self.table = CounterTable(entries)

    def _index(self, site: int) -> int:
        return site >> 2

    def predict_cond(self, site: int) -> bool:
        return self.table.predict(self._index(site))

    def update_cond(self, site: int, taken: bool) -> None:
        self.table.update(self._index(site), taken)

    def reset(self) -> None:
        """Reset counters, return stack and the pattern table."""
        super().reset()
        self.table.reset()


class CorrelationPHT(DirectMappedPHT):
    """Global-history-XOR-address (gshare) correlation predictor."""

    name = "pht-correlation"

    def __init__(
        self,
        entries: int = PAPER_PHT_ENTRIES,
        history_bits: int = 12,
        ras_depth: int = 32,
    ):
        super().__init__(entries, ras_depth)
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, site: int) -> int:
        return (site >> 2) ^ self.history

    def update_cond(self, site: int, taken: bool) -> None:
        # Index must be computed before the history shifts; BranchArchSim
        # calls predict_cond first, so recompute here with the same value.
        self.table.update(self._index(site), taken)
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.history_mask

    def reset(self) -> None:
        """Additionally clear the global history register."""
        super().reset()
        self.history = 0


class TournamentPHT(BranchArchSim):
    """McFarling's combining predictor (extension).

    The paper takes its correlation variant from McFarling's tech report;
    the same report's headline design *combines* two predictors with a
    per-site chooser table: each chooser counter tracks which component
    predicted better at that site and selects it next time.  Here the
    components are the paper's two PHTs — per-site counters (good for
    biased branches) and gshare (good for patterns) — so the tournament
    inherits the better of Table 4's two dynamic direction predictors.

    Total state: two 4096-counter tables + a 4096-counter chooser = 3 KB.
    """

    name = "pht-tournament"

    def __init__(
        self,
        entries: int = PAPER_PHT_ENTRIES,
        history_bits: int = 12,
        ras_depth: int = 32,
    ):
        super().__init__(ras_depth)
        self.local = CounterTable(entries)
        self.gshare = CounterTable(entries)
        self.chooser = CounterTable(entries, initial=1)  # weakly favour local
        self.history_mask = (1 << history_bits) - 1
        self.history = 0

    def predict_cond(self, site: int) -> bool:
        """Let the chooser pick a component, then use its prediction."""
        index = site >> 2
        if self.chooser.predict(index):  # high counter: trust gshare
            return self.gshare.predict(index ^ self.history)
        return self.local.predict(index)

    def update_cond(self, site: int, taken: bool) -> None:
        """Train both components and the chooser, then shift history."""
        index = site >> 2
        local_correct = self.local.predict(index) == taken
        gshare_correct = self.gshare.predict(index ^ self.history) == taken
        if local_correct != gshare_correct:
            # Move the chooser toward whichever component was right.
            self.chooser.update(index, gshare_correct)
        self.local.update(index, taken)
        self.gshare.update(index ^ self.history, taken)
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.history_mask

    def reset(self) -> None:
        """Reset components, chooser, history and counters."""
        super().reset()
        self.local.reset()
        self.gshare.reset()
        self.chooser.reset()
        self.history = 0


class LocalHistoryPHT(DirectMappedPHT):
    """A per-address two-level predictor (Yeh & Patt's PAs family).

    The paper's related work covers both global-history correlation (Pan
    et al.) and per-address two-level schemes (Yeh & Patt).  This variant
    keeps a table of per-site history registers; each prediction indexes
    the shared counter table with the site XOR its own history ("pshare").
    Local history captures per-branch periodicity — short counted loops —
    without the cross-branch interference a global register suffers.

    This predictor is an *extension*: Tables 3/4 simulate only the two
    PHTs the paper describes, but the extension bench compares all three.
    """

    name = "pht-local"

    def __init__(
        self,
        entries: int = PAPER_PHT_ENTRIES,
        history_bits: int = 10,
        history_entries: int = 1024,
        ras_depth: int = 32,
    ):
        super().__init__(entries, ras_depth)
        if history_entries < 1 or history_entries & (history_entries - 1):
            raise ValueError(f"history table size must be a power of two, got {history_entries}")
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.history_entries = history_entries
        self.histories = [0] * history_entries

    def _history_slot(self, site: int) -> int:
        return (site >> 2) & (self.history_entries - 1)

    def _index(self, site: int) -> int:
        return (site >> 2) ^ self.histories[self._history_slot(site)]

    def update_cond(self, site: int, taken: bool) -> None:
        self.table.update(self._index(site), taken)
        slot = self._history_slot(site)
        self.histories[slot] = (
            (self.histories[slot] << 1) | (1 if taken else 0)
        ) & self.history_mask

    def reset(self) -> None:
        """Additionally clear every per-site history register."""
        super().reset()
        self.histories = [0] * self.history_entries
