"""Ablation benches for the design choices the paper (and DESIGN.md) call out.

* Try15 window size — the paper: "Considering 10 nodes at a time gave
  slightly worse results than Try15 for a few programs, but ... still
  resulted in better performance than the Greedy algorithm."
* Chain ordering — highest-executed-first vs the Pettis–Hansen BT/FNT
  precedence order (section 6.1: weight ordering "performed slightly
  better").
* The position-exact sense refinement pass (this reproduction's
  implementation of "it is not known where the taken branch will be
  located until the chains are formed and laid out").
* Cost vs Try15 — the joint window search against purely local decisions.
"""

import pytest

from repro.analysis import format_table
from repro.core import CostAligner, GreedyAligner, TraceAligner, TryNAligner, make_model
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.workloads import generate_benchmark

PROGRAMS = ("eqntott", "espresso", "gcc", "tex")
SCALE = 0.25


def _suite():
    out = []
    for name in PROGRAMS:
        program = generate_benchmark(name, SCALE)
        out.append((name, program, profile_program(program)))
    return out


def _total_cost(model, aligner, suite):
    total = 0.0
    for _name, program, profile in suite:
        total += model.layout_cost(link(aligner.align(program, profile)), profile)
    return total


def test_ablation_window_size(benchmark, emit):
    """Greedy < Try5 <= Try10 <= Try15 in modelled quality (roughly)."""
    model = make_model("likely")

    def run():
        suite = _suite()
        costs = {"greedy": _total_cost(model, GreedyAligner(), suite)}
        for window in (1, 5, 10, 15, 30):
            aligner = TryNAligner(model, window=window)
            costs[f"try{window}"] = _total_cost(model, aligner, suite)
        return costs

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_window_size",
        format_table(
            ["Aligner", "Modelled cycles (4 programs)"],
            [[k, f"{v:.0f}"] for k, v in costs.items()],
        ),
    )
    assert costs["try15"] <= costs["try1"] * 1.0001
    assert costs["try15"] < costs["greedy"]
    # Windows near the paper's choice are already saturated.
    assert costs["try30"] <= costs["try10"] * 1.001


def test_ablation_chain_ordering(benchmark, emit):
    """Weight ordering vs BT/FNT precedence ordering for Greedy."""
    model = make_model("btfnt")

    def run():
        suite = _suite()
        return {
            "greedy/weight": _total_cost(model, GreedyAligner("weight"), suite),
            "greedy/btfnt": _total_cost(model, GreedyAligner("btfnt"), suite),
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_chain_ordering",
        format_table(
            ["Configuration", "BT/FNT modelled cycles"],
            [[k, f"{v:.0f}"] for k, v in costs.items()],
        ),
    )
    # Both orderings must produce working layouts; the paper found the
    # weight ordering slightly better overall, which we reproduce.
    assert costs["greedy/weight"] <= costs["greedy/btfnt"] * 1.05


def test_ablation_sense_refinement(benchmark, emit):
    """The refinement pass never hurts and usually helps BT/FNT."""
    model = make_model("btfnt")

    class _NoRefine(TryNAligner):
        """Try15 with the sense-refinement pass disabled."""

        def align_procedure(self, proc, profile):
            chains = self.build_chains(proc, profile)
            chains.check()
            from repro.core.layout_order import order_chains
            from repro.isa import ProcedureLayout

            order = order_chains(chains, profile, self.chain_order)
            return ProcedureLayout.from_order(proc, order)

    def run():
        suite = _suite()
        refined = TryNAligner(make_model("likely"), refine_model=make_model("btfnt"))
        likely_refined = TryNAligner(make_model("likely"))
        no_refine = _NoRefine(make_model("likely"))
        return {
            "search+btfnt refine": _total_cost(model, refined, suite),
            "search only": _total_cost(model, no_refine, suite),
            "search+likely refine": _total_cost(model, likely_refined, suite),
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_sense_refinement",
        format_table(
            ["Configuration", "BT/FNT modelled cycles"],
            [[k, f"{v:.0f}"] for k, v in costs.items()],
        ),
    )
    assert costs["search+btfnt refine"] <= costs["search only"] + 1e-6


def test_ablation_cost_vs_tryn(benchmark, emit):
    """The window search vs the purely local Cost heuristic."""
    def run():
        suite = _suite()
        rows = []
        for arch in ("fallthrough", "likely", "pht"):
            model = make_model(arch)
            rows.append([
                arch,
                f"{_total_cost(model, CostAligner(model), suite):.0f}",
                f"{_total_cost(model, TryNAligner(model), suite):.0f}",
                f"{_total_cost(model, GreedyAligner(), suite):.0f}",
                f"{_total_cost(model, TraceAligner(), suite):.0f}",
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_cost_vs_tryn",
        format_table(["Model", "Cost", "Try15", "Greedy", "Trace"], rows),
    )
    for arch, cost_c, cost_t, cost_g, _cost_trace in rows:
        # Try15 is the best of the three under its own model.
        assert float(cost_t) <= float(cost_c) * 1.001, arch
        assert float(cost_t) <= float(cost_g) * 1.001, arch
