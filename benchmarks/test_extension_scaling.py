"""Extension bench: alignment at large static scale (synthetic programs).

The suite's synthetic benchmarks are laptop-sized; this bench generates a
program with hundreds of hot branch sites — enough to pressure the small
BTB the way gcc pressures it in the paper — and checks that (a) the BTB
size finally matters, (b) the small BTB benefits more from alignment, and
(c) TryN's windowed search stays fast at this scale.
"""

import time

from repro.analysis import format_table, make_arch_sims
from repro.core import TryNAligner, make_model
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.sim.metrics import simulate
from repro.workloads import SyntheticSpec, generate_synthetic


def test_extension_btb_pressure_at_scale(benchmark, emit):
    spec = SyntheticSpec(procedures=20, constructs_per_procedure=25,
                         driver_iterations=4)

    def run():
        program = generate_synthetic(spec, seed=1)
        profile = profile_program(program)
        start = time.perf_counter()
        layout = TryNAligner.for_architecture("btb").align(program, profile)
        align_seconds = time.perf_counter() - start
        archs = ("btb-64x2", "btb-256x4")
        original = link_identity(program)
        base = simulate(original, profile,
                        archs=make_arch_sims(archs, original, profile))
        aligned_linked = link(layout)
        aligned = simulate(aligned_linked, profile,
                           archs=make_arch_sims(archs, aligned_linked, profile))
        return program, base, aligned, align_seconds

    program, base, aligned, align_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    instr = base.instructions
    rows = []
    for arch in ("btb-64x2", "btb-256x4"):
        rows.append([
            arch,
            f"{base.relative_cpi(arch, instr):.3f}",
            f"{aligned.relative_cpi(arch, instr):.3f}",
        ])
    rows.append(["sites", str(program.static_conditional_sites()), ""])
    emit("extension_btb_pressure", format_table(["", "orig", "try15"], rows))

    small_before = base.relative_cpi("btb-64x2", instr)
    large_before = base.relative_cpi("btb-256x4", instr)
    small_after = aligned.relative_cpi("btb-64x2", instr)
    large_after = aligned.relative_cpi("btb-256x4", instr)
    # With ~800 sites, the 64-entry BTB visibly trails the 256-entry one.
    assert small_before > large_before + 0.003
    # "The small BTB architecture can benefit more from branch alignment
    # than the larger BTB" — fewer taken branches need fewer entries.
    assert (small_before - small_after) > (large_before - large_after)
    # The windowed search stays practical at this scale.
    assert align_seconds < 30.0
