"""Command-line interface: ``python -m repro <command>``.

Gives the library's main workflows a shell entry point:

* ``list`` — the 24-benchmark suite and its categories;
* ``profile`` — trace a benchmark, write an edge profile (JSON);
* ``align`` — align a benchmark with any registered algorithm and report
  per-architecture relative CPI (optionally reusing a saved profile, the
  paper's two-pass workflow);
* ``tournament`` — the alignment arena: every registered algorithm
  (``repro.core.registry``) against every architecture and benchmark off
  one shared decision trace, scored as pairwise win matrices over branch
  cost and fall-through rate (``--arena`` shards benchmark x algorithm
  units across the fabric);
* ``table2`` / ``table3`` / ``table4`` / ``figure4`` — regenerate the
  paper's evaluation artifacts (through the resilient runner: retries
  inline; per-benchmark isolation, timeouts and checkpoint/resume
  through the fabric);
* ``lint`` — run the static verifier passes (``repro.staticcheck``)
  over a benchmark's CFG, profile and layouts; ``--estimate`` adds the
  trace-free branch-cost estimate cross-validated against the simulator;
* ``predict`` — profile-free branch prediction: heuristic per-site
  taken-probabilities, Wu–Larus frequency propagation, layout-
  opportunity hints at meld-blocked sites (``--compare`` grades the
  predictions against a measured trace; feeds ``tournament
  --profile-source static`` and claim 20);
* ``prove`` — recover a CFG from each aligned layout's raw linked
  instruction stream and statically prove it bisimilar to the original
  binary (translation validation; ``--json`` emits the proof artifacts);
* ``sweep`` — run a benchmarks x seeds sweep through the fault-tolerant
  fabric (``repro.fabric``): durable lease queue (``--queue DIR``,
  ``--resume``), supervised heartbeat workers (``--workers/--lease``),
  poison-unit quarantine, chaos injection (``--inject kill-worker,...``)
  and a consolidated SHA-256-manifested report;
* ``sensitivity`` — machine-sensitivity sweeps (mispredict penalty,
  issue width) for one benchmark;
* ``doctor`` — run the lint catalog over one benchmark's pipeline
  (``--profile`` judges a saved profile) or every registered workload
  (``--lint``), audit / repair an artifact store (``--store DIR
  [--repair]``; cached decision traces are decoded and stale/corrupt
  entries flagged), or inspect or repair a fabric queue (``--fabric DIR
  [--repair]``);
* ``dot`` — emit a procedure's control-flow graph in Graphviz format.

Suite commands (``table3``/``table4``/``figure4``) capture each
benchmark's decision trace once and replay it through every linked
image, Figure 4's Alpha timing model included; ``--replay-check``
differentially checks every replay against a fresh execution, and
``--trace-cache DIR`` persists captured decision traces across runs.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 partial
suite results (some benchmarks failed; see the failure table).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .fabric import FabricConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class UsageError(Exception):
    """A caller mistake (unknown benchmark, malformed flag value)."""

from .analysis import (
    branch_hotspots,
    compare_layout_quality,
    layout_quality,
    compute_table2,
    experiment_records,
    figure4_records,
    records_to_csv,
    table2_records,
    procedure_hotspots,
    render_hotspots,
    render_claims,
    verify_claims,
    format_table,
    issue_width_sweep,
    mispredict_penalty_sweep,
    penalty_breakdown,
    render_breakdown,
    render_figure4,
    render_table2,
    render_table3,
    render_table4,
)
from .cfg import CFGError, procedure_to_dot
from .core import CostAligner, GreedyAligner, TryNAligner, make_model
from .isa import LayoutError, ProgramLayout, diff_layouts, link, link_identity, render_diff, save_layout
from .profiling import ProfileFormatError, load_profile, profile_program, save_profile
from .runner import (
    ArtifactStore,
    FaultPlan,
    InvariantResult,
    RetryPolicy,
    RunnerConfig,
    RunnerError,
    SuiteRunResult,
    parse_fault_spec,
    render_failure_table,
    render_invariant_report,
    render_partial_banner,
    run_figure4_resilient,
    run_suite_resilient,
)
from .sim.metrics import ALL_ARCHS, DYNAMIC_ARCHS, STATIC_ARCHS, simulate
from .workloads import SUITE, generate_benchmark


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _require_benchmark(name: str) -> str:
    if name not in SUITE:
        raise UsageError(
            f"unknown benchmark {name!r}; run `python -m repro list` for the suite"
        )
    return name


def _workload(args: argparse.Namespace):
    return generate_benchmark(_require_benchmark(args.benchmark), args.scale)


def _benchmark_list(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in SUITE]
    if unknown:
        raise UsageError(f"unknown benchmarks: {', '.join(unknown)}")
    return names


def _runner_config(
    args: argparse.Namespace,
) -> Tuple[RunnerConfig, Optional["FabricConfig"]]:
    """Build the runner's per-unit switches, and the fabric config when
    the table/figure flags ask for isolation or a checkpoint."""
    faults = None
    if args.inject:
        try:
            specs = tuple(parse_fault_spec(spec) for spec in args.inject)
        except ValueError as exc:
            raise UsageError(str(exc))
        faults = FaultPlan(specs=specs, seed=args.seed)
        if any(s.kind == "corrupt-artifact" for s in specs) and not args.store:
            raise UsageError(
                "corrupt-artifact faults need an artifact store; add --store DIR"
            )
        if any(s.stage == "layout" for s in specs) and not (args.oracle or args.prove):
            raise UsageError(
                "layout faults are only observable by the oracle or the "
                "prover; add --oracle or --prove"
            )
        if any(s.kind == "break-cfg" for s in specs) and not args.lint:
            raise UsageError(
                "break-cfg faults are only observable by the linter; add --lint"
            )
        if any(s.kind == "corrupt-trace" for s in specs) and not args.trace_cache:
            raise UsageError(
                "corrupt-trace faults corrupt the on-disk trace cache; "
                "add --trace-cache DIR"
            )
    if args.retries < 1:
        raise UsageError("--retries must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        raise UsageError("--timeout must be positive")
    if args.resume and args.checkpoint is None:
        raise UsageError("--resume requires --checkpoint DIR")
    if args.checkpoint is not None and Path(args.checkpoint).is_file():
        raise UsageError(
            f"--checkpoint {args.checkpoint} is a file; --checkpoint now "
            f"names a queue directory (old JSONL journals cannot be resumed)"
        )
    retry = RetryPolicy(max_attempts=args.retries)
    fabric = None
    if (args.isolate or args.workers > 1 or args.timeout is not None
            or args.checkpoint is not None):
        from .fabric import FabricConfig

        fabric = FabricConfig(
            workers=args.workers,
            timeout=args.timeout,
            retry=retry,
            queue_dir=args.checkpoint,
            resume=args.resume,
            faults=faults,
            seed=args.seed,
        )
    config = RunnerConfig(
        retry=retry,
        faults=faults,
        oracle=args.oracle,
        prove=args.prove,
        lint=args.lint,
        meld=args.meld,
        store=args.store,
        replay_check=args.replay_check,
        trace_cache=args.trace_cache,
    )
    return config, fabric


def _finish_suite(
    result: SuiteRunResult, total: int, args: argparse.Namespace, text: str
) -> int:
    """Write a suite report, surfacing degradation explicitly."""
    if result.partial and not args.csv:
        text += (
            "\n\n" + render_partial_banner(result, total)
            + "\n" + render_failure_table(result.failures)
        )
    _write(text, args.output)
    if result.skipped:
        print(
            f"resumed: {len(result.skipped)} benchmark(s) restored from "
            f"checkpoint {result.checkpoint}",
            file=sys.stderr,
        )
    if result.partial:
        print(render_partial_banner(result, total), file=sys.stderr)
        print(render_failure_table(result.failures), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    width = max(len(name) for name in SUITE)
    for name, spec in SUITE.items():
        print(f"{name:<{width}}  {spec.category:<10}  {spec.description}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    program = _workload(args)
    profile = profile_program(program, seed=args.seed)
    save_profile(profile, args.output)
    total = sum(profile.total_weight(name) for name in profile.procedures())
    print(f"wrote {args.output}: {len(profile.procedures())} procedures, "
          f"{total:,} edge traversals")
    return 0


def _make_aligner(algorithm: str, arch: str, window: int):
    """Build one aligner: a registered name, or the legacy cost/tryn spellings."""
    from .core import aligner_names, make_aligner

    if algorithm == "cost":
        return CostAligner(make_model(arch))
    if algorithm == "tryn":
        return TryNAligner.for_architecture(arch, window=window)
    if algorithm in aligner_names():
        return make_aligner(algorithm, arch=arch, window=window)
    raise UsageError(f"unknown algorithm {algorithm!r}")


def _algorithm_choices() -> tuple:
    """Registry names plus the legacy model-parameterised spellings."""
    from .core import aligner_names

    return tuple(aligner_names()) + ("cost", "tryn")


def _algorithm_list(value: Optional[str]) -> Optional[List[str]]:
    """Parse ``--algorithms a,b,c`` against the registry."""
    from .core import aligner_names

    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in aligner_names()]
    if unknown:
        raise UsageError(
            f"unknown algorithms: {', '.join(unknown)}; registered: "
            + ", ".join(aligner_names())
        )
    return names


def cmd_align(args: argparse.Namespace) -> int:
    program = _workload(args)
    if args.profile:
        profile = load_profile(args.profile)
    else:
        profile = profile_program(program, seed=args.seed)
    aligner = _make_aligner(args.algorithm, args.arch, args.window)
    layout = aligner.align(program, profile)
    if args.save_layout:
        save_layout(layout, args.save_layout)
        print(f"alignment map written to {args.save_layout}")
    if args.diff:
        print(render_diff(
            diff_layouts(ProgramLayout.identity(program), layout), profile
        ))
        print()

    inversions = jumps = removed = 0
    for name in program.order:
        proc_layout = layout[name]
        inversions += len(proc_layout.inverted_conditionals())
        jumps += len(proc_layout.inserted_jumps())
        removed += len(proc_layout.removed_branches())
    print(f"{args.algorithm} alignment ({args.arch} model): "
          f"{inversions} inverted conditionals, {jumps} inserted jumps, "
          f"{removed} removed branches")

    base = simulate(link_identity(program), profile, seed=args.seed)
    aligned = simulate(link(layout), profile, seed=args.seed)
    print(f"\n{'architecture':<18}{'orig CPI':>10}{'aligned':>10}{'gain %':>8}")
    for arch in ALL_ARCHS:
        before = base.relative_cpi(arch, base.instructions)
        after = aligned.relative_cpi(arch, base.instructions)
        print(f"{arch:<18}{before:>10.3f}{after:>10.3f}"
              f"{100 * (before - after) / before:>8.1f}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = compute_table2(_benchmark_list(args.benchmarks), scale=args.scale,
                          seed=args.seed)
    if args.csv:
        _write(records_to_csv(table2_records(rows)).rstrip(), args.output)
    else:
        _write(render_table2(rows), args.output)
    return 0


def _suite_table(args: argparse.Namespace, archs: Sequence[str], render) -> int:
    names = _benchmark_list(args.benchmarks) or list(SUITE)
    config, fabric = _runner_config(args)
    result = run_suite_resilient(
        names, scale=args.scale, seed=args.seed, window=args.window,
        archs=archs, config=config, fabric=fabric,
    )
    if args.csv:
        text = records_to_csv(experiment_records(result.results)).rstrip()
    else:
        text = render(result.results)
    return _finish_suite(result, len(names), args, text)


def cmd_table3(args: argparse.Namespace) -> int:
    return _suite_table(args, STATIC_ARCHS, render_table3)


def cmd_table4(args: argparse.Namespace) -> int:
    return _suite_table(args, DYNAMIC_ARCHS, render_table4)


def cmd_figure4(args: argparse.Namespace) -> int:
    names = _benchmark_list(args.benchmarks)
    from .workloads import FIGURE4_PROGRAMS
    selected = names if names is not None else list(FIGURE4_PROGRAMS)
    config, fabric = _runner_config(args)
    result = run_figure4_resilient(
        selected, scale=args.scale, seed=args.seed, window=args.window,
        config=config, fabric=fabric,
    )
    if args.csv:
        text = records_to_csv(figure4_records(result.results)).rstrip()
    else:
        text = render_figure4(result.results)
    return _finish_suite(result, len(selected), args, text)


def _bad_traces(store: ArtifactStore) -> dict:
    """Cached decision traces that fail to decode, with the reason.

    Checksum-intact entries can still be unusable: written by an older
    trace schema or ISA encoding (stale fingerprint) or semantically
    malformed.  The runner re-captures those transparently; doctor
    surfaces them, ``--repair`` sweeps them out.
    """
    from .runner.store import ArtifactCorruptError as _Corrupt
    from .sim.decisions import TraceDecodeError, is_trace_key, validate_payload

    bad = {}
    for key in store.keys():
        if not is_trace_key(key):
            continue
        try:
            validate_payload(store.load(key), key)
        except TraceDecodeError as exc:
            bad[key] = exc.reason
        except _Corrupt as exc:
            bad[key] = exc.reason
    return bad


def _doctor_store(args: argparse.Namespace) -> int:
    """Audit (and with ``--repair`` fix) an artifact store's integrity."""
    store = ArtifactStore(args.store)
    if args.repair:
        stale = _bad_traces(store)
        for key in stale:
            store.quarantine(key)
        report = store.repair()
        lines = [report.render()]
        if stale:
            lines.append(
                f"{len(stale)} stale/corrupt cached trace(s) quarantined: "
                + ", ".join(f"{key} ({reason})" for key, reason in stale.items())
            )
        _write("\n".join(lines), args.output)
        return EXIT_OK
    verdicts = store.verify_all()
    stale = _bad_traces(store)
    lines = []
    for key, error in verdicts.items():
        if error is not None:
            status = f"FAIL ({error.reason})"
        elif key in stale:
            status = f"FAIL ({stale[key]})"
        else:
            status = "PASS"
        lines.append(f"{status:<24}  {key}")
    corrupt = sum(1 for e in verdicts.values() if e is not None) + len(
        [k for k in stale if verdicts.get(k) is None]
    )
    lines.append(
        f"{len(verdicts) - corrupt}/{len(verdicts)} artifacts intact"
        + (f" — rerun with --repair to quarantine {corrupt}" if corrupt else "")
    )
    _write("\n".join(lines), args.output)
    return EXIT_OK if not corrupt else EXIT_RUNTIME


def _lint_layouts(program, profile, arch: str, window: int, injector=None,
                  benchmark: str = "", attempt: int = 1):
    """Identity + aligned layouts for one lint run, layout faults applied.

    Returns ``(layouts, unbuilt)``; an aligner that refuses the (possibly
    corrupted) input leaves its label in ``unbuilt`` (label -> error)
    instead of a layout, so linting a broken CFG still terminates with a
    report, and the caller fails the run on the layout it could not check.
    """
    builders = [
        ("orig", lambda: ProgramLayout.identity(program)),
        ("greedy", lambda: GreedyAligner().align(program, profile)),
        (f"try{window}-{arch}",
         lambda: TryNAligner.for_architecture(arch, window=window).align(program, profile)),
    ]
    layouts, unbuilt = {}, {}
    for label, build in builders:
        try:
            layout = build()
        except Exception as exc:
            unbuilt[label] = f"{type(exc).__name__}: {exc}"
            continue
        if injector is not None:
            layout = injector.mutate_layout(benchmark, attempt, label, layout, profile)
        layouts[label] = layout
    return layouts, unbuilt


def _unbuilt_lines(unbuilt: dict) -> list:
    return [f"layout {label!r} could not be built ({error})"
            for label, error in unbuilt.items()]


def _static_context(program, notes: Optional[list] = None):
    """Build the RL022–RL024 static-prediction context, or None.

    A CFG corrupted by fault injection can defeat the predictor before
    any pass runs; linting must still terminate with a report, so the
    failure becomes a note instead of a crash.
    """
    from .staticcheck import StaticContext

    try:
        from .profiling import StaticProfile

        return StaticContext(profile=StaticProfile.from_program(program))
    except Exception as exc:
        if notes is not None:
            notes.append(
                f"note: static prediction unavailable "
                f"({type(exc).__name__}: {exc})"
            )
        return None


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static verifier passes (and optionally the estimator)."""
    import json as _json

    from .runner import FaultInjector
    from .staticcheck import cross_validate, estimate_costs, run_lint

    program = _workload(args)
    if args.profile:
        profile = load_profile(args.profile)
    else:
        profile = profile_program(program, seed=args.seed)

    injector = None
    if args.inject:
        try:
            specs = tuple(parse_fault_spec(spec) for spec in args.inject)
        except ValueError as exc:
            raise UsageError(str(exc))
        injector = FaultInjector(FaultPlan(specs=specs, seed=args.seed))
        program = injector.break_cfg(args.benchmark, 1, program, profile)

    layouts, unbuilt = _lint_layouts(
        program, profile, args.arch, args.window,
        injector=injector, benchmark=args.benchmark,
    )
    notes: list = []
    static = _static_context(program, notes)
    report = run_lint(
        program, profile, layouts, subject=args.benchmark, static=static
    )

    estimate_block = None
    if args.estimate and report.ok:
        linked = link_identity(program)
        estimate = estimate_costs(linked, profile)
        simulated = simulate(linked, profile, seed=args.seed)
        agreements = cross_validate(estimate, simulated)
        estimate_block = {
            "instructions": estimate.instructions,
            "simulated_instructions": simulated.instructions,
            "archs": {
                a.name: {
                    "estimated_cpi": a.estimated_cpi,
                    "simulated_cpi": a.simulated_cpi,
                    "relative_error": a.relative_error,
                }
                for a in agreements
            },
        }

    ok = report.ok and not unbuilt
    if args.json:
        payload = report.to_dict()
        if unbuilt:
            payload["unbuilt"] = unbuilt
            payload["summary"]["ok"] = False
        if notes:
            payload["notes"] = notes
        if estimate_block is not None:
            payload["estimate"] = estimate_block
        _write(_json.dumps(payload, indent=2), args.output)
    else:
        lines = [report.render()]
        lines.extend(f"error: {line}" for line in _unbuilt_lines(unbuilt))
        lines.extend(notes)
        if estimate_block is not None:
            lines.append("")
            lines.append(f"{'architecture':<18}{'est CPI':>10}{'sim CPI':>10}{'err %':>8}")
            for name, row in estimate_block["archs"].items():
                lines.append(
                    f"{name:<18}{row['estimated_cpi']:>10.4f}"
                    f"{row['simulated_cpi']:>10.4f}"
                    f"{100 * row['relative_error']:>8.2f}"
                )
        _write("\n".join(lines), args.output)
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_predict(args: argparse.Namespace) -> int:
    """Profile-free branch prediction: per-site probabilities and flow.

    Runs the heuristic predictor and Wu–Larus frequency propagation over
    a benchmark without tracing it.  ``--compare`` traces the benchmark
    once and grades the predictions against the measured taken rates;
    ``--json`` emits the full machine-readable report, including
    layout-opportunity hints for sites the melding legality analyzer
    blocks but the predictor still orients.
    """
    import json as _json

    from .staticcheck import (
        ProgramAnalyses,
        analyze_program,
        predict_program,
        propagate_program,
    )

    program = _workload(args)
    analyses = ProgramAnalyses()
    report = predict_program(program, analyses)
    frequencies = propagate_program(program, report=report, analyses=analyses)

    def site_freq(procedure: str, block) -> float:
        fmap = frequencies.get(procedure)
        return fmap.block_freq.get(block, 0.0) if fmap else 0.0

    # Rank sites by propagated frequency — the weight each prediction
    # carries in the synthetic profile the aligners consume.
    sites = sorted(
        report.sites,
        key=lambda s: (-site_freq(s.procedure, s.block), s.procedure, s.block),
    )

    # Layout-opportunity hints: sites the legality analyzer blocks from
    # melding (their arms' observation chains diverge, or worse) are
    # exactly where alignment is the only remaining lever — and a
    # skewed prediction says which arm to keep hot.
    legality = analyze_program(program)
    hints = []
    for blocked in legality.blocked():
        pred = report.site(blocked.procedure, blocked.site)
        if pred is None:
            continue
        hints.append({
            "procedure": blocked.procedure,
            "site": blocked.site,
            "blocked_reason": blocked.reason,
            "p_taken": pred.p_taken,
            "confidence": pred.confidence,
            "frequency": site_freq(blocked.procedure, blocked.site),
            "high_skew": pred.confidence >= 0.5,
            "hot_arm": "taken" if pred.predicts_taken else "fallthrough",
        })
    hints.sort(key=lambda h: -(h["frequency"] * h["confidence"]))

    compare_block = None
    if args.compare:
        if args.profile:
            profile = load_profile(args.profile)
        else:
            profile = profile_program(program, seed=args.seed)
        rows = []
        total_w = agree_w = 0.0
        for s in report.sites:
            proc = program.procedure(s.procedure)
            try:
                w_taken, w_fall = profile.cond_mix(proc, s.block)
            except (KeyError, ValueError):
                continue
            executed = w_taken + w_fall
            if not executed:
                continue
            measured = w_taken / executed
            agree = (s.p_taken >= 0.5) == (measured >= 0.5)
            total_w += executed
            if agree:
                agree_w += executed
            rows.append({
                "procedure": s.procedure,
                "block": s.block,
                "predicted": s.p_taken,
                "measured": measured,
                "weight": executed,
                "agree": agree,
            })
        rows.sort(key=lambda r: -r["weight"])
        compare_block = {
            "sites": len(rows),
            "weighted_agreement": agree_w / total_w if total_w else None,
            "rows": rows,
        }

    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "scale": args.scale,
            "site_count": len(report.sites),
            "sites": [
                dict(s.to_dict(), frequency=site_freq(s.procedure, s.block))
                for s in sites
            ],
            "cyclic": {
                name: {str(b): cp for b, cp in fmap.cyclic.items()}
                for name, fmap in frequencies.items()
                if fmap.cyclic
            },
            "hints": hints,
        }
        if compare_block is not None:
            payload["compare"] = compare_block
        _write(_json.dumps(payload, indent=2), args.output)
        return EXIT_OK

    lines = [
        f"{args.benchmark}: {len(report.sites)} conditional site(s) "
        f"predicted, {len(frequencies)} procedure(s) propagated",
        "",
        f"{'procedure':<16}{'block':>6}{'p(taken)':>10}{'conf':>7}"
        f"{'freq':>12}  heuristics",
    ]
    for s in sites[: args.top]:
        lines.append(
            f"{s.procedure:<16}{str(s.block):>6}{s.p_taken:>10.3f}"
            f"{s.confidence:>7.2f}{site_freq(s.procedure, s.block):>12.1f}"
            f"  {'+'.join(s.heuristics)}"
        )
    if len(sites) > args.top:
        lines.append(f"... {len(sites) - args.top} more site(s); --top to widen")
    if hints:
        lines += ["", "layout opportunities at meld-blocked sites:"]
        for h in hints[: args.top]:
            skew = "high-skew" if h["high_skew"] else "weak"
            lines.append(
                f"  {h['procedure']}:{h['site']} blocked ({h['blocked_reason']}) "
                f"— keep {h['hot_arm']} arm hot "
                f"(p={h['p_taken']:.2f}, {skew}, freq {h['frequency']:.1f})"
            )
    if compare_block is not None:
        pct = compare_block["weighted_agreement"]
        lines += [
            "",
            f"vs measured profile: {compare_block['sites']} executed "
            f"site(s), weighted direction agreement "
            + ("n/a" if pct is None else f"{100 * pct:.1f}%"),
        ]
        worst = sorted(
            compare_block["rows"],
            key=lambda r: -abs(r["predicted"] - r["measured"]) * r["weight"],
        )[:5]
        for r in worst:
            verdict = "ok" if r["agree"] else "MISS"
            lines.append(
                f"  {r['procedure']}:{r['block']} predicted "
                f"{r['predicted']:.2f} vs measured {r['measured']:.2f} "
                f"(weight {r['weight']}, {verdict})"
            )
    _write("\n".join(lines), args.output)
    return EXIT_OK


def cmd_prove(args: argparse.Namespace) -> int:
    """Statically prove every aligned layout bisimilar to the original.

    Recovers a CFG from each layout's raw linked instruction stream (no
    source metadata, no execution) and emits a checkable bisimulation
    proof per layout; any rejection exits non-zero.
    """
    import json as _json

    from .oracle import alignment_layouts
    from .runner import FaultInjector
    from .staticcheck.binary import prove_layouts

    program = _workload(args)
    if args.profile:
        profile = load_profile(args.profile)
    else:
        profile = profile_program(program, seed=args.seed)

    layouts = alignment_layouts(program, profile, window=args.window)
    if args.inject:
        try:
            specs = tuple(parse_fault_spec(spec) for spec in args.inject)
        except ValueError as exc:
            raise UsageError(str(exc))
        injector = FaultInjector(FaultPlan(specs=specs, seed=args.seed))
        layouts = {
            label: injector.mutate_layout(args.benchmark, 1, label, layout, profile)
            for label, layout in layouts.items()
        }

    store = ArtifactStore(args.store) if args.store else None
    proofs = prove_layouts(
        program, layouts, store=store, benchmark=args.benchmark
    )
    ok = all(proof.bisimilar for proof in proofs.values())
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "bisimilar": ok,
            "proofs": {label: proof.to_dict() for label, proof in proofs.items()},
        }
        _write(_json.dumps(payload, indent=2), args.output)
    else:
        lines = [f"prove: {args.benchmark}"]
        width = max(len(label) for label in proofs) if proofs else 0
        for label, proof in proofs.items():
            if proof.bisimilar:
                sites = sum(len(p.correspondences) for p in proof.procedures)
                edges = sum(len(p.witnesses) for p in proof.procedures)
                detail = f"{sites} site pairs, {edges} edge witnesses"
                status = "PROVED"
            else:
                detail = "; ".join(proof.failures()[:2])
                status = "REJECT"
            lines.append(f"{status:<7} {label:<{width}}  {detail}")
        proved = sum(proof.bisimilar for proof in proofs.values())
        lines.append(f"{proved}/{len(proofs)} layouts proved bisimilar")
        if store is not None:
            lines.append(f"proof artifacts stored under {args.store}")
        _write("\n".join(lines), args.output)
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_meld(args: argparse.Namespace) -> int:
    """Analyze, apply and judge branch melding (the claim-18 workflow).

    Runs the static legality analyzer over each benchmark, applies every
    approved meld, and (on request) proves the melded program bisimilar
    to the original, replays both observable event streams, injects
    forced illegal melds that the prover and RL018+ must reject, and
    emits the alignment x melding interaction study.
    """
    import json as _json

    from .analysis import MELD_BENCHMARKS, render_meld_studies, run_meld_study
    from .oracle.meldcheck import verify_meld
    from .staticcheck import MeldContext, analyze_program, run_lint
    from .staticcheck.binary import prove_meld, prove_meld_layouts
    from .staticcheck.legality import REASON_CHAINS_DIVERGE
    from .oracle import alignment_layouts
    from .transforms import force_meld, meld_program

    names = [
        _require_benchmark(name)
        for name in (args.benchmarks or list(MELD_BENCHMARKS))
    ]
    ok = True
    lines: List[str] = []
    payload: List[dict] = []
    studies = []
    for name in names:
        program = generate_benchmark(name, args.scale)
        legality = analyze_program(program)
        melded, report = meld_program(program, legality=legality)
        entry: dict = {
            "benchmark": name,
            "legality": legality.to_dict(),
            "meld": report.to_dict(),
        }
        counts = legality.verdict_counts()
        lines.append(f"meld: {name}")
        lines.append(
            "  sites: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        for site in legality.sites:
            lines.append(
                f"    {site.verdict:<14} {site.procedure}:{site.site:<4} "
                f"shape={site.shape:<9} {site.reason or '-'}"
            )
        for applied in report.applied:
            lines.append(
                f"  applied {applied.action} at "
                f"{applied.procedure}:{applied.site} -> {applied.target} "
                f"(removed {len(applied.removed)} block(s))"
            )
        if not report.applied:
            lines.append("  no approved site; nothing melded")

        if args.prove and report.applied:
            proof = prove_meld(program, melded)
            oracle = verify_meld(program, melded, seed=args.seed, benchmark=name)
            profile = profile_program(melded, seed=args.seed)
            layout_proofs = prove_meld_layouts(
                program, alignment_layouts(melded, profile, window=args.window)
            )
            proved = (
                proof.bisimilar
                and oracle.passed
                and all(p.bisimilar for p in layout_proofs.values())
            )
            ok &= proved
            status = "PROVED" if proved else "REJECT"
            lines.append(
                f"  {status} identity={proof.bisimilar} "
                f"stream={'match' if oracle.passed else 'diverged'} "
                f"aligned={sum(p.bisimilar for p in layout_proofs.values())}"
                f"/{len(layout_proofs)}"
            )
            entry["prove"] = {
                "identity": proof.to_dict(),
                "oracle": oracle.to_dict(),
                "layouts": {
                    label: p.bisimilar for label, p in layout_proofs.items()
                },
            }

        if args.inject:
            meld_codes = {"RL018", "RL019", "RL020", "RL021"}
            probes = [
                site for site in legality.blocked()
                if site.reason == REASON_CHAINS_DIVERGE
            ][: args.inject]
            if len(probes) < args.inject:
                lines.append(
                    f"  only {len(probes)} chains-diverge site(s) available "
                    f"for {args.inject} requested probe(s)"
                )
            entry["probes"] = []
            for site in probes:
                forced, record = force_meld(program, site.procedure, site.site)
                proof = prove_meld(
                    program, forced, label=f"fault:{site.procedure}:{site.site}"
                )
                lint = run_lint(
                    forced,
                    subject=f"{name}:fault-meld",
                    meld=MeldContext(
                        original=program, melded=forced, records=(record,)
                    ),
                )
                flagged = sorted(
                    meld_codes.intersection(d.code for d in lint.errors)
                )
                caught = not proof.bisimilar and "RL018" in flagged
                ok &= caught
                lines.append(
                    f"  probe {site.procedure}:{site.site} "
                    f"{'caught' if caught else 'ESCAPED'}: "
                    f"prover={'reject' if not proof.bisimilar else 'accept'} "
                    f"lint={','.join(flagged) or '-'}"
                )
                entry["probes"].append(
                    {
                        "procedure": site.procedure,
                        "site": site.site,
                        "prover_rejected": not proof.bisimilar,
                        "flagged": flagged,
                        "caught": caught,
                    }
                )

        if args.study:
            study = run_meld_study(
                name, scale=args.scale, seed=args.seed, window=args.window,
                program=program, melded=melded, meld_report=report,
            )
            studies.append(study)
            entry["study"] = study.to_dict()
        payload.append(entry)

    if args.json:
        _write(
            _json.dumps(
                {"benchmarks": payload, "ok": ok}, indent=2, default=str
            ),
            args.output,
        )
    elif args.study:
        _write(render_meld_studies(studies), args.output)
    else:
        _write("\n".join(lines), args.output)
    return EXIT_OK if ok else EXIT_RUNTIME


def _doctor_lint(args: argparse.Namespace) -> int:
    """Lint one benchmark (or every registered workload), PASS/FAIL per pass.

    Each workload is traced (one benchmark may bring ``--profile``
    instead), aligned, and melded where the legality analyzer approves,
    so the RL018–RL021 meld-audit passes run with a real transcript.  A
    layout that cannot be built fails the report as a ``layout-build``
    row naming it.
    """
    from .staticcheck import MeldContext, run_lint
    from .transforms import meld_program

    names = [_require_benchmark(args.benchmark)] if args.benchmark else list(SUITE)
    failures: dict = {}
    descriptions: dict = {}
    unbuilt: list = []
    clean = True
    for name in names:
        program = generate_benchmark(name, args.scale)
        if args.profile:
            profile = load_profile(args.profile)
        else:
            profile = profile_program(program, seed=args.seed)
        layouts, refused = _lint_layouts(program, profile, args.arch, args.window)
        unbuilt.extend(f"{name}: {line}" for line in _unbuilt_lines(refused))
        melded, meld_report = meld_program(program)
        meld = MeldContext(
            original=program, melded=melded,
            records=tuple(meld_report.applied),
        )
        report = run_lint(
            program, profile, layouts, subject=name, meld=meld,
            static=_static_context(program),
        )
        clean &= report.ok
        for outcome in report.outcomes:
            descriptions[outcome.pass_id] = outcome.description
            if not outcome.passed:
                failures.setdefault(outcome.pass_id, []).append(
                    f"{name}: " + "; ".join(
                        d.render() for d in outcome.findings[:2]
                    )
                )
    results = [
        InvariantResult(
            f"lint:{pass_id}",
            f"{description} ({len(names)} workload(s))",
            pass_id not in failures,
            failures.get(pass_id, []),
        )
        for pass_id, description in descriptions.items()
    ]
    if unbuilt:
        results.insert(0, InvariantResult(
            "layout-build", f"aligned layouts build ({len(names)} workload(s))",
            False, unbuilt,
        ))
    _write(render_invariant_report(results), args.output)
    return EXIT_OK if clean and not unbuilt else EXIT_RUNTIME


def _doctor_remote(args: argparse.Namespace) -> int:
    """Probe a live coordinator: protocol, schema, fingerprint drift."""
    from .fabric import PROTOCOL_VERSION, TransportError, probe_coordinator
    from .fabric.scheduler import SCHEMA_VERSION, load_queue_dir

    lines = [f"remote coordinator {args.remote}"]
    try:
        probe = probe_coordinator(args.remote, timeout=5.0)
    except ValueError as exc:
        raise UsageError(str(exc))
    except TransportError as exc:
        lines.append(
            f"FAIL unreachable: {exc.reason} — {exc.detail or 'no detail'}; "
            f"is a `repro sweep --listen` coordinator running there?"
        )
        _write("\n".join(lines), args.output)
        return EXIT_RUNTIME
    problems = 0
    if probe["protocol"] != PROTOCOL_VERSION:
        problems += 1
        lines.append(
            f"FAIL protocol drift: coordinator speaks wire protocol "
            f"{probe['protocol']}, this client speaks {PROTOCOL_VERSION} — "
            f"workers from this host would be rejected at handshake"
        )
    else:
        lines.append(f"PASS protocol: v{probe['protocol']}")
    if probe["schema"] != SCHEMA_VERSION:
        problems += 1
        lines.append(
            f"FAIL queue-schema drift: coordinator persists schema "
            f"{probe['schema']}, this host expects {SCHEMA_VERSION}"
        )
    else:
        lines.append(f"PASS queue schema: v{probe['schema']}")
    lines.append(
        f"coordinator sweep: {probe['units']} unit(s), "
        f"fingerprint {probe['fingerprint']}"
    )
    if args.fabric:
        header, _records, _corrupt = load_queue_dir(args.fabric)
        local = header.get("fingerprint")
        if local != probe["fingerprint"]:
            problems += 1
            lines.append(
                f"FAIL fingerprint drift: local queue {args.fabric} is sweep "
                f"{local}, the coordinator serves {probe['fingerprint']} — "
                f"these are different sweeps; results must not be merged"
            )
        else:
            lines.append(f"PASS fingerprint matches local queue {args.fabric}")
    _write("\n".join(lines), args.output)
    return EXIT_OK if not problems else EXIT_RUNTIME


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a coordinator as a remote fabric worker until drained."""
    from .fabric import FabricError, RemoteWorker, WorkerConfig

    if args.max_units is not None and args.max_units < 1:
        raise UsageError("--max-units must be >= 1")
    if args.name:
        name = args.name
    else:
        import os
        import socket as _socket

        name = f"{_socket.gethostname()}-{os.getpid()}"
    try:
        config = WorkerConfig(
            connect=args.connect,
            name=name,
            timeout=args.timeout,
            store_dir=args.store,
            max_units=args.max_units,
            seed=args.seed,
        )
        worker = RemoteWorker(config)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        summary = worker.run()
    except FabricError as exc:
        print(f"worker rejected: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    lines = [
        f"worker {summary['worker']}: {summary['reason']}",
        f"completed: {len(summary['completed'])} unit(s)",  # type: ignore[arg-type]
    ]
    failed = summary["failed"]
    if failed:
        lines.append(f"failed: {len(failed)} unit(s)")  # type: ignore[arg-type]
    if summary["reconnects"]:
        lines.append(f"reconnected {summary['reconnects']} time(s)")
    if args.store:
        lines.append(f"partial results manifested in {args.store}")
    _write("\n".join(lines), args.output)
    return EXIT_OK if summary["reason"] in ("drained", "max-units") else EXIT_RUNTIME


def cmd_doctor(args: argparse.Namespace) -> int:
    """Lint a benchmark's pipeline PASS/FAIL per pass, or audit a store,
    a fabric queue or a live coordinator."""
    if args.repair and not (args.store or args.fabric):
        raise UsageError("--repair needs --store DIR or --fabric DIR")
    if args.store and args.fabric:
        raise UsageError("pick one of --store and --fabric")
    if args.profile and args.benchmark is None:
        raise UsageError("--profile needs a benchmark to judge it against")
    if args.remote:
        return _doctor_remote(args)
    if args.fabric:
        return _doctor_fabric(args)
    if args.store:
        return _doctor_store(args)
    if args.benchmark is None and not args.lint:
        raise UsageError(
            "doctor needs a benchmark (or --lint / --store DIR / --fabric DIR)"
        )
    return _doctor_lint(args)


def cmd_breakdown(args: argparse.Namespace) -> int:
    program = _workload(args)
    archs = tuple(a.strip() for a in args.archs.split(",")) if args.archs else ALL_ARCHS
    rows = penalty_breakdown(program, archs=archs, seed=args.seed)
    _write(render_breakdown(rows), args.output)
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    program = _workload(args)
    if args.kind == "penalty":
        raw = args.points or "2,4,8,16"
        points = mispredict_penalty_sweep(
            program, arch=args.arch,
            penalties=[float(p) for p in raw.split(",")],
            seed=args.seed,
        )
        header = "Mispredict cycles"
    else:
        raw = args.points or "1,2,4,8"
        points = issue_width_sweep(
            program, widths=[int(p) for p in raw.split(",")], seed=args.seed
        )
        header = "Issue width"
    text = format_table(
        [header, "Original", "Aligned", "Gain %"],
        [[f"{p.parameter:g}", f"{p.original:,.3f}", f"{p.aligned:,.3f}",
          f"{p.gain_percent:.1f}"] for p in points],
    )
    _write(text, args.output)
    return 0


def _fabric_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Parse ``repro sweep --inject``: bare fabric kinds or full specs."""
    from .runner import FaultSpec

    specs = []
    for chunk in args.inject:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                if ":" in item:
                    specs.append(parse_fault_spec(item))
                else:
                    specs.append(
                        FaultSpec(benchmark="*", stage="fabric", kind=item)
                    )
            except ValueError as exc:
                raise UsageError(str(exc))
    if not specs:
        return None
    return FaultPlan(specs=tuple(specs), seed=args.seeds_list[0])


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a benchmark sweep through the fault-tolerant fabric."""
    from .fabric import FabricConfig, run_fabric, write_report
    from .runner.faults import NETWORK_FAULT_KINDS
    from .runner.runner import UnitTask

    names = _benchmark_list(args.benchmarks) or list(SUITE)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --seeds value {args.seeds!r}")
    if not seeds:
        raise UsageError("--seeds needs at least one seed")
    args.seeds_list = seeds
    if args.archs:
        archs = tuple(a.strip() for a in args.archs.split(",") if a.strip())
        unknown = [a for a in archs if a not in ALL_ARCHS]
        if unknown:
            raise UsageError(f"unknown architectures: {', '.join(unknown)}")
    else:
        archs = ALL_ARCHS
    if args.retries < 1:
        raise UsageError("--retries must be >= 1")
    if args.resume and not args.queue:
        raise UsageError("--resume requires --queue DIR")
    if args.remote_workers < 0:
        raise UsageError("--remote-workers must be >= 0")
    if args.remote_workers and not args.listen:
        raise UsageError("--remote-workers needs --listen [HOST:]PORT")
    if args.report is None and args.queue is not None:
        from pathlib import Path as _Path

        args.report = str(_Path(args.queue) / "report.json")

    faults = _fabric_fault_plan(args)
    if faults is not None and not args.listen:
        network = sorted(
            {s.kind for s in faults.specs if s.kind in NETWORK_FAULT_KINDS}
        )
        if network:
            raise UsageError(
                f"network fault(s) {', '.join(network)} attack the socket "
                f"tier; add --listen [HOST:]PORT"
            )

    algorithms = _algorithm_list(args.algorithms)
    tasks = [
        UnitTask(
            kind="experiment", benchmark=name, scale=args.scale, seed=seed,
            window=args.window, archs=archs,
            algorithms=tuple(algorithms) if algorithms is not None else None,
        )
        for seed in seeds
        for name in names
    ]
    try:
        config = FabricConfig(
            workers=args.workers,
            lease=args.lease,
            heartbeat=args.heartbeat,
            poison_threshold=args.poison_threshold,
            retry=RetryPolicy(max_attempts=args.retries),
            queue_dir=args.queue,
            resume=args.resume,
            faults=faults,
            drain_timeout=args.drain_timeout,
            seed=seeds[0],
            listen=args.listen,
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    loopback: list = []
    on_listening = None
    if args.listen:
        from .fabric import launch_workers

        def on_listening(address: tuple) -> None:
            print(f"listening on {address[0]}:{address[1]}", file=sys.stderr)
            if args.remote_workers:
                loopback.extend(
                    launch_workers(address, args.remote_workers, seed=seeds[0])
                )

    result = run_fabric(tasks, config, on_listening=on_listening)
    for thread in loopback:
        thread.join(timeout=30.0)

    scheduler = result.scheduler
    rows = []
    for unit_id in scheduler.order:
        record = scheduler.record(unit_id)
        workers = sorted(
            {str(e["worker"]) for e in record.lease_history if "worker" in e}
        )
        rows.append([
            unit_id,
            record.state,
            str(record.attempts),
            ",".join(workers) or "-",
        ])
    lines = [format_table(["Unit", "State", "Attempts", "Workers"], rows)]
    counts = result.counts()
    lines.append(
        "counts: " + ", ".join(f"{state}={counts[state]}"
                               for state in ("done", "failed", "quarantined",
                                             "pending", "leased")
                               if counts[state])
    )
    if result.resumed:
        lines.append(f"resumed: {len(result.resumed)} unit(s) restored from "
                     f"the queue without re-running")
    if result.remote is not None:
        fired = result.remote.get("faults_fired") or {}
        rejections = result.remote.get("rejections") or {}
        line = (
            f"socket tier: {len(result.remote.get('workers', []))} remote "
            f"worker(s), {len(result.remote.get('remote_completed', []))} "
            f"unit(s) completed remotely"
        )
        if fired:
            line += "; network faults fired: " + ", ".join(
                f"{kind}x{times}" for kind, times in sorted(fired.items())
            )
        if rejections:
            line += "; stale messages rejected: " + ", ".join(
                f"{reason}x{times}"
                for reason, times in sorted(rejections.items())
            )
        lines.append(line)
    for record in result.quarantined:
        failure = record.failure or {}
        lines.append(
            f"quarantined (poison): {record.unit_id} — "
            f"{failure.get('message', 'crashed distinct workers')}; "
            f"{len(record.tracebacks)} traceback(s) recorded"
        )
    for failure_rec in result.failures:
        lines.append(f"failed: {failure_rec.benchmark} at {failure_rec.stage} "
                     f"({failure_rec.kind}): {failure_rec.message}")
    if result.drained:
        lines.append(
            f"drained: {result.drain_reason} — leases revoked and queue "
            f"checkpointed; rerun with --resume to finish"
        )
    if args.report:
        path = write_report(
            scheduler, args.report,
            drained=result.drained, drain_reason=result.drain_reason,
        )
        lines.append(f"report written to {path}")
    _write("\n".join(lines), args.output)
    if result.partial:
        return EXIT_PARTIAL
    return EXIT_OK


def _doctor_fabric(args: argparse.Namespace) -> int:
    """Inspect (and with ``--repair`` fix) a fabric queue directory."""
    from .fabric import (
        LEASED,
        QUARANTINED,
        load_queue_dir,
        repair_queue_dir,
    )

    if args.repair:
        summary = repair_queue_dir(args.fabric)
        lines = []
        if summary["revoked"]:
            lines.append(
                f"{len(summary['revoked'])} stuck lease(s) released back to "
                f"pending: " + ", ".join(summary["revoked"])
            )
        if summary["quarantined"]:
            lines.append(
                f"{len(summary['quarantined'])} corrupt record file(s) "
                f"quarantined: " + ", ".join(summary["quarantined"])
            )
        if not lines:
            lines.append("queue is clean — nothing to repair")
        _write("\n".join(lines), args.output)
        return EXIT_OK

    header, records, corrupt = load_queue_dir(args.fabric)
    lines = [f"fabric queue {args.fabric} (sweep {header.get('fingerprint')})"]
    counts: dict = {}
    for record in records.values():
        counts[record.state] = counts.get(record.state, 0) + 1
    lines.append(
        "counts: " + (", ".join(f"{state}={n}"
                                for state, n in sorted(counts.items())) or "empty")
    )
    problems = 0
    for record in sorted(records.values(), key=lambda r: r.unit_id):
        if record.state == LEASED:
            problems += 1
            holder = record.lease.worker if record.lease is not None else "?"
            lines.append(
                f"stuck lease: {record.unit_id} held by {holder} "
                f"(attempt {record.attempts}) — no live supervisor can "
                f"renew it; --repair releases it"
            )
        elif record.state == QUARANTINED:
            failure = record.failure or {}
            lines.append(
                f"quarantined: {record.unit_id} — "
                f"{failure.get('message', 'poison unit')}"
            )
    for path in corrupt:
        problems += 1
        lines.append(f"corrupt record: {path.name} — undecodable; --repair "
                     f"quarantines it")
    if not problems:
        lines.append("no stuck leases or corrupt records")
    _write("\n".join(lines), args.output)
    return EXIT_OK if not problems else EXIT_RUNTIME


def cmd_tournament(args: argparse.Namespace) -> int:
    """Run the alignment arena: every registered algorithm head to head."""
    import json as _json

    from .analysis import render_tournament, run_tournament

    names = _benchmark_list(args.benchmarks)
    algorithms = _algorithm_list(args.algorithms)
    if args.archs:
        archs = tuple(a.strip() for a in args.archs.split(",") if a.strip())
        unknown = [a for a in archs if a not in ALL_ARCHS]
        if unknown:
            raise UsageError(f"unknown architectures: {', '.join(unknown)}")
    else:
        archs = ALL_ARCHS
    if args.profile_source == "static":
        # The static arena is a *study*: the same benchmarks run twice,
        # aligned on the measured profile and on the profile-free
        # StaticProfile, and the report scores how much of the measured
        # win the predictions recover (results/static_profile.md).
        from .analysis import STATIC_STUDY_ARCHS, render_static_study, run_static_study

        if args.arena:
            raise UsageError(
                "--arena sharding is not supported with --profile-source "
                "static (the study already runs two full tournaments)"
            )
        if algorithms is not None and len(algorithms) != 1:
            raise UsageError(
                "--profile-source static studies exactly one aligner; "
                "pass a single --algorithms entry (default try15)"
            )
        study = run_static_study(
            benchmarks=names, scale=args.scale, seed=args.seed,
            window=args.window,
            archs=archs if args.archs else STATIC_STUDY_ARCHS,
            algorithm=algorithms[0] if algorithms else "try15",
        )
        if args.json:
            _write(_json.dumps(study.to_dict(), indent=2), args.output)
        else:
            _write(render_static_study(study), args.output)
        return EXIT_OK
    runner = None
    if args.arena:
        from .fabric import FabricConfig

        if args.workers < 1:
            raise UsageError("--workers must be >= 1")
        runner = FabricConfig(
            workers=args.workers,
            retry=RetryPolicy(max_attempts=args.retries),
            queue_dir=args.queue,
            seed=args.seed,
        )
    try:
        tournament = run_tournament(
            benchmarks=names, scale=args.scale, seed=args.seed,
            window=args.window, archs=archs, algorithms=algorithms,
            runner=runner, arena=args.arena,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.json:
        _write(_json.dumps(tournament.to_dict(), indent=2), args.output)
    else:
        _write(render_tournament(tournament), args.output)
    return EXIT_OK


def cmd_quality(args: argparse.Namespace) -> int:
    from .core import aligner_names, get_spec

    program = _workload(args)
    profile = profile_program(program, seed=args.seed)
    qualities = {"orig": layout_quality(link_identity(program), profile)}
    competitors = [
        name for name in aligner_names() if not get_spec(name).identity
    ] + ["cost"]
    for algorithm in competitors:
        aligner = _make_aligner(algorithm, args.arch, args.window)
        linked = link(aligner.align(program, profile))
        qualities[algorithm] = layout_quality(linked, profile)
    _write(compare_layout_quality(qualities), args.output)
    return 0


def cmd_hotspots(args: argparse.Namespace) -> int:
    program = _workload(args)
    from .profiling import profile_program as _pp
    profile = _pp(program, seed=args.seed)
    model = make_model(args.arch)
    aligner = TryNAligner.for_architecture(args.arch, window=args.window)
    procs = procedure_hotspots(program, model, aligner, profile, seed=args.seed)
    branches = branch_hotspots(program, model, aligner, profile, seed=args.seed,
                               top=args.top)
    _write(render_hotspots(procs, branches), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_claims(scale=args.scale, seed=args.seed, window=args.window)
    _write(render_claims(results), args.output)
    failed = [r for r in results if not r.passed]
    if failed and args.strict:
        print(
            f"strict mode: {len(failed)} claim(s) failed", file=sys.stderr
        )
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    program = _workload(args)
    if args.procedure not in program:
        raise UsageError(
            f"unknown procedure {args.procedure!r}; "
            f"available: {', '.join(program.order)}"
        )
    weights = None
    if args.weights:
        profile = profile_program(program, seed=args.seed)
        weights = profile.proc_edges(args.procedure)
    text = procedure_to_dot(program.procedure(args.procedure), edge_weights=weights)
    _write(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Branch alignment reproduction (Calder & Grunwald, ASPLOS 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=False):
        p.add_argument("--scale", type=float, default=0.25,
                       help="workload scale multiplier (default 0.25)")
        p.add_argument("--seed", type=int, default=0, help="behaviour seed")
        p.add_argument("-o", "--output", help="write result to a file")
        if window:
            p.add_argument("--window", type=int, default=15,
                           help="TryN window size (default 15)")

    sub.add_parser("list", help="list the benchmark suite").set_defaults(func=cmd_list)

    p = sub.add_parser("profile", help="trace a benchmark, save its edge profile")
    p.add_argument("benchmark")
    p.add_argument("output", help="profile JSON path")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("align", help="align a benchmark and compare CPI")
    p.add_argument("benchmark")
    p.add_argument("--algorithm", choices=_algorithm_choices(), default="tryn",
                   help="a registered aligner (see `repro tournament`) or "
                        "the legacy model-parameterised cost/tryn spellings")
    p.add_argument("--arch", choices=("fallthrough", "btfnt", "likely", "pht", "btb"),
                   default="btb", help="cost-model architecture")
    p.add_argument("--profile", help="reuse a saved profile instead of tracing")
    p.add_argument("--save-layout", help="write the alignment map (JSON) here")
    p.add_argument("--diff", action="store_true",
                   help="print the block-level transformation report")
    common(p, window=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("breakdown", help="misfetch/mispredict decomposition")
    p.add_argument("benchmark")
    p.add_argument("--archs", help="comma-separated architecture subset")
    common(p)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser(
        "lint",
        help="static verifier passes over a benchmark's CFG, profile and "
             "layouts (RLxxx diagnostics; non-zero exit on errors)",
    )
    p.add_argument("benchmark")
    p.add_argument("--arch", choices=("fallthrough", "btfnt", "likely", "pht", "btb"),
                   default="btb", help="cost-model architecture for the aligned layout")
    p.add_argument("--profile", help="lint a saved profile instead of tracing")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report")
    p.add_argument("--estimate", action="store_true",
                   help="append the static cost estimate cross-validated "
                        "against the simulator")
    p.add_argument("--inject", action="append", default=[],
                   metavar="BENCH:STAGE:KIND[:TIMES]",
                   help="inject a deterministic fault before linting "
                        "(e.g. eqntott:lint:break-cfg)")
    common(p, window=True)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "predict",
        help="profile-free branch prediction: heuristic per-site "
             "probabilities fused Dempster–Shafer style, Wu–Larus "
             "frequency propagation, and layout-opportunity hints at "
             "meld-blocked sites",
    )
    p.add_argument("benchmark")
    p.add_argument("--compare", action="store_true",
                   help="trace the benchmark once and grade the "
                        "predictions against the measured taken rates")
    p.add_argument("--profile", help="with --compare, grade against a "
                                     "saved profile instead of tracing")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (sites, "
                        "frequencies, hints, comparison)")
    p.add_argument("--top", type=int, default=20,
                   help="sites to show in the text report (default 20)")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "prove",
        help="statically prove every aligned layout's binary bisimilar to "
             "the original (translation validation; non-zero exit on any "
             "rejection)",
    )
    p.add_argument("benchmark")
    p.add_argument("--profile", help="reuse a saved profile instead of tracing")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable proof artifacts as JSON")
    p.add_argument("--store", metavar="DIR",
                   help="persist proof artifacts to a crash-safe artifact "
                        "store under proof/<benchmark>/<layout>")
    p.add_argument("--inject", action="append", default=[],
                   metavar="BENCH:STAGE:KIND[:TIMES]",
                   help="inject a deterministic layout fault before proving "
                        "(e.g. eqntott:layout:flip-sense)")
    common(p, window=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser(
        "meld",
        help="statically classify every conditional branch as meldable / "
             "if-convertible / blocked, apply the approved removals, and "
             "judge them (bisimulation prover + event-stream oracle)",
    )
    p.add_argument("benchmarks", nargs="*",
                   help="benchmarks to meld (default: the claim-18 pair)")
    p.add_argument("--prove", action="store_true",
                   help="prove each melded program (identity + aligned "
                        "layouts) bisimilar and replay both event streams; "
                        "non-zero exit on any rejection")
    p.add_argument("--inject", type=int, default=0, metavar="N",
                   help="force N illegal melds per benchmark; each must be "
                        "rejected by the prover and flagged RL018+ or the "
                        "command exits non-zero")
    p.add_argument("--study", action="store_true",
                   help="run the alignment x melding interaction study and "
                        "render the results table")
    p.add_argument("--json", action="store_true",
                   help="emit everything as machine-readable JSON")
    common(p, window=True)
    p.set_defaults(func=cmd_meld)

    p = sub.add_parser("sensitivity", help="machine-sensitivity sweeps")
    p.add_argument("benchmark")
    p.add_argument("kind", choices=("penalty", "width"))
    p.add_argument("--points", default=None,
                   help="comma-separated sweep points")
    p.add_argument("--arch", default="likely",
                   help="architecture for the penalty sweep")
    common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser(
        "sweep",
        help="run a benchmark sweep through the fault-tolerant fabric: "
             "durable lease queue, supervised heartbeat workers, "
             "poison-unit quarantine, consolidated manifest report",
    )
    p.add_argument("--benchmarks", help="comma-separated subset (default: all)")
    p.add_argument("--seeds", default="0",
                   help="comma-separated behaviour seeds (default 0); the "
                        "sweep is benchmarks x seeds units")
    p.add_argument("--archs", default=None,
                   help="comma-separated architecture subset (default: all)")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated registered aligners each unit "
                        "competes (default: the whole registry)")
    g = p.add_argument_group("fabric")
    g.add_argument("--workers", type=int, default=2, metavar="N",
                   help="supervised worker processes (default 2)")
    g.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                   help="lease duration; a unit not completed or "
                        "heartbeat-renewed within this window is revoked "
                        "and re-leased (default 30)")
    g.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                   help="worker heartbeat interval (default: lease/4, "
                        "capped at 1s)")
    g.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per unit (default 3)")
    g.add_argument("--poison-threshold", type=int, default=2, metavar="K",
                   help="distinct workers a unit may crash before it is "
                        "quarantined as poison (default 2)")
    g.add_argument("--queue", metavar="DIR",
                   help="durable queue directory; the sweep survives "
                        "SIGKILL and --resume picks it back up")
    g.add_argument("--resume", action="store_true",
                   help="resume the queue directory: done units keep "
                        "their verified results, dead leases are revoked, "
                        "failed units re-run, poison stays quarantined")
    g.add_argument("--inject", action="append", default=[],
                   metavar="KIND|BENCH:fabric:KIND[:TIMES]",
                   help="inject fabric faults (comma-separable): bare "
                        "kinds (kill-worker, stall-worker, expire-lease, "
                        "corrupt-queue, poison-unit) apply to every "
                        "benchmark; full specs pin one")
    g.add_argument("--report", metavar="PATH",
                   help="write the consolidated SHA-256-manifested report "
                        "here (default: QUEUE/report.json with --queue)")
    g.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="grace period for in-flight units on SIGINT/"
                        "SIGTERM before their leases are revoked")
    s = p.add_argument_group("socket tier")
    s.add_argument("--listen", metavar="[HOST:]PORT",
                   help="serve the lease protocol over TCP so `repro "
                        "worker` processes (any host) can join the sweep; "
                        "port 0 picks an ephemeral port (printed to "
                        "stderr); --workers 0 runs coordinator-only")
    s.add_argument("--remote-workers", type=int, default=0, metavar="N",
                   help="also start N loopback socket workers in-process "
                        "(demo/CI mode; requires --listen)")
    common(p, window=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "worker",
        help="join a `repro sweep --listen` coordinator as a remote "
             "fabric worker: lease units over TCP, heartbeat, stream "
             "results back, reconnect with jittered backoff",
    )
    p.add_argument("--connect", required=True, metavar="[HOST:]PORT",
                   help="coordinator address")
    p.add_argument("--name", default=None, metavar="NAME",
                   help="worker name (default: HOSTNAME-PID); reconnects "
                        "under the same name get a fresh session epoch")
    p.add_argument("--store", metavar="DIR",
                   help="also persist this host's results to a local "
                        "SHA-256-manifested partial artifact store")
    p.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS",
                   help="per-RPC timeout before reconnecting (default 5)")
    p.add_argument("--max-units", type=int, default=None, metavar="N",
                   help="leave after completing N units")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the reconnect backoff jitter")
    p.add_argument("-o", "--output", help="write the summary to a file")
    p.set_defaults(func=cmd_worker)

    def runner_flags(p):
        g = p.add_argument_group("resilient runner")
        g.add_argument("--checkpoint", metavar="DIR",
                       help="run through the fabric with a durable queue "
                            "directory that checkpoints every finished "
                            "benchmark (inspect with doctor --fabric DIR)")
        g.add_argument("--resume", action="store_true",
                       help="resume the --checkpoint queue, re-running only "
                            "unfinished/failed benchmarks")
        g.add_argument("--isolate", action="store_true",
                       help="run each benchmark in a supervised fabric "
                            "worker process (crashes become per-benchmark "
                            "failures)")
        g.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="per-benchmark wall-clock budget (implies --isolate)")
        g.add_argument("--retries", type=int, default=3, metavar="N",
                       help="max attempts for retryable failures (default 3)")
        g.add_argument("--workers", type=int, default=1, metavar="N",
                       help="parallel worker processes (implies --isolate)")
        g.add_argument("--inject", action="append", default=[],
                       metavar="BENCH:STAGE:KIND[:TIMES]",
                       help="inject a deterministic fault (fault-injection "
                            "harness; e.g. gcc:align:crash or "
                            "eqntott:layout:mutate-layout)")
        g.add_argument("--oracle", action="store_true",
                       help="differentially verify every aligned layout "
                            "replays the original trace (divergences fail "
                            "the benchmark, never retried)")
        g.add_argument("--prove", action="store_true",
                       help="statically prove every aligned layout's binary "
                            "bisimilar to the original (translation "
                            "validation; rejections fail the benchmark, "
                            "never retried)")
        g.add_argument("--lint", action="store_true",
                       help="run the static verifier passes over each "
                            "benchmark's CFG and profile before alignment "
                            "(error findings fail the benchmark, never "
                            "retried)")
        g.add_argument("--meld", action="store_true",
                       help="apply every analyzer-approved branch meld to "
                            "the workload before tracing (with --lint the "
                            "RL018-RL021 audit passes check the transcript)")
        g.add_argument("--store", metavar="DIR",
                       help="persist results to a crash-safe checksummed "
                            "artifact store (corrupt artifacts are "
                            "quarantined and re-run on --resume)")
        g.add_argument("--replay-check", action="store_true",
                       help="differentially check every replay against a "
                            "fresh execution (slow; reports must be "
                            "bit-identical)")
        g.add_argument("--trace-cache", metavar="DIR",
                       help="cache captured decision traces on disk, keyed "
                            "by (workload, scale, seed, meld) fingerprint; "
                            "corrupt or stale entries are quarantined and "
                            "re-captured transparently")

    for name, func, window in (
        ("table2", cmd_table2, False),
        ("table3", cmd_table3, True),
        ("table4", cmd_table4, True),
        ("figure4", cmd_figure4, True),
    ):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        p.add_argument("--benchmarks", help="comma-separated subset")
        p.add_argument("--csv", action="store_true",
                       help="emit machine-readable CSV instead of a table")
        common(p, window=window)
        if name != "table2":
            runner_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "doctor",
        help="lint a benchmark's pipeline (PASS/FAIL per verifier pass), "
             "or audit/repair an artifact store or fabric queue",
    )
    p.add_argument("benchmark", nargs="?",
                   help="benchmark to lint (omit with --lint, --store or --fabric)")
    p.add_argument("--profile",
                   help="judge a saved profile of BENCHMARK instead of tracing")
    p.add_argument("--store", metavar="DIR",
                   help="audit an artifact store's checksums instead")
    p.add_argument("--fabric", metavar="DIR",
                   help="inspect a fabric queue directory: stuck leases, "
                        "quarantined poison units, corrupt records")
    p.add_argument("--remote", metavar="[HOST:]PORT",
                   help="probe a live sweep coordinator: ping round-trip, "
                        "wire-protocol and queue-schema versions, sweep "
                        "fingerprint (with --fabric DIR: drift vs the "
                        "local queue)")
    p.add_argument("--repair", action="store_true",
                   help="with --store: quarantine corrupt artifacts; with "
                        "--fabric: release stuck leases back to pending "
                        "and quarantine corrupt queue records")
    p.add_argument("--arch", choices=("fallthrough", "btfnt", "likely", "pht", "btb"),
                   default="btb", help="cost-model architecture for the aligned checks")
    p.add_argument("--lint", action="store_true",
                   help="without BENCHMARK: lint every registered "
                        "workload, PASS/FAIL per pass (with BENCHMARK "
                        "the report is the same as without --lint)")
    common(p, window=True)
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "tournament",
        help="run the alignment arena: every registered algorithm x "
             "architecture x benchmark off one shared decision trace, "
             "scored as pairwise win matrices (branch cost + fall-through)",
    )
    p.add_argument("--benchmarks", help="comma-separated subset "
                                        "(default: the verify nine)")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated registered aligners "
                        "(default: the whole registry)")
    p.add_argument("--archs", default=None,
                   help="comma-separated architecture subset (default: all)")
    p.add_argument("--profile-source", choices=("measured", "static"),
                   default="measured", dest="profile_source",
                   help="profile fed to the aligners: the measured trace "
                        "(default) or the profile-free static prediction; "
                        "'static' renders the recovery study "
                        "(results/static_profile.md) instead of win "
                        "matrices")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (win matrices, "
                        "standings, per-cell scores)")
    g = p.add_argument_group("arena sharding")
    g.add_argument("--arena", action="store_true",
                   help="shard through the fault-tolerant fabric as one "
                        "unit per benchmark x algorithm")
    g.add_argument("--workers", type=int, default=2, metavar="N",
                   help="fabric workers with --arena (default 2)")
    g.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per fabric unit (default 3)")
    g.add_argument("--queue", metavar="DIR",
                   help="durable fabric queue directory with --arena")
    common(p, window=True)
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("quality", help="layout-quality internals per algorithm")
    p.add_argument("benchmark")
    p.add_argument("--arch", choices=("fallthrough", "btfnt", "likely", "pht", "btb"),
                   default="likely")
    common(p, window=True)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("hotspots", help="per-procedure / per-branch cost attribution")
    p.add_argument("benchmark")
    p.add_argument("--arch", choices=("fallthrough", "btfnt", "likely", "pht", "btb"),
                   default="likely")
    p.add_argument("--top", type=int, default=15, help="branch sites to show")
    common(p, window=True)
    p.set_defaults(func=cmd_hotspots)

    p = sub.add_parser("verify", help="check every paper claim (reproduction certificate)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero when any claim fails")
    common(p, window=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", help="emit a procedure's CFG as Graphviz")
    p.add_argument("benchmark")
    p.add_argument("procedure")
    p.add_argument("--weights", action="store_true",
                   help="label edges with profiled execution percentages")
    common(p)
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RunnerError, ProfileFormatError, LayoutError, CFGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
