"""Command-line interface: run experiments without writing a script.

Examples::

    python -m repro run --system samya-majority --duration 120
    python -m repro run --mode live --duration 5
    python -m repro live --system samya-majority --duration 10
    python -m repro compare --systems samya-majority,multipaxsys
    python -m repro predict --models random-walk,arima,lstm
    python -m repro trace --days 7
    python -m repro run --trace t.jsonl --duration 60
    python -m repro trace t.jsonl --validate
    python -m repro trace t.jsonl --demand
    python -m repro top --duration 20
    python -m repro nemesis --seed 7 --audit

Every command prints the same tables the benchmark harness does.
``trace`` is dual-purpose: with no file it inspects the synthetic
demand trace; given a JSONL telemetry trace (written by ``run --trace``
or ``live --trace``) it prints per-phase latency and message tables.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.harness.experiment import (
    PREDICTORS,
    REALLOCATORS,
    SYSTEMS,
    ExperimentConfig,
    run_experiment,
)
from repro.harness.report import format_series, format_table
from repro.workload.trace import SyntheticAzureTrace, TraceConfig


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        system=args.system if hasattr(args, "system") else "samya-majority",
        mode=getattr(args, "mode", "sim"),
        duration=args.duration,
        maximum=args.maximum,
        seed=args.seed,
        predictor=args.predictor,
        reallocator=args.reallocator,
        read_ratio=args.read_ratio,
        loss_probability=args.loss,
        trace_path=getattr(args, "trace", None),
        audit=getattr(args, "audit", False),
        perf=getattr(args, "perf", False),
        flow=getattr(args, "flow", False),
    )


def _result_rows(result) -> list[list[object]]:
    latency = result.latency.row_ms()
    return [
        ["committed", result.committed],
        ["committed reads", result.committed_reads],
        ["rejected", result.rejected],
        ["failed", result.failed],
        ["shed (client window)", result.shed],
        ["avg throughput (tps)", f"{result.throughput_avg:.1f}"],
        ["latency p90 (ms)", f"{latency['p90']:.2f}"],
        ["latency p95 (ms)", f"{latency['p95']:.2f}"],
        ["latency p99 (ms)", f"{latency['p99']:.2f}"],
        ["redistributions", result.redistributions.get("triggered", "-")],
        ["conservation audits", result.invariant_checks],
    ]


def _report_planes(result, args: argparse.Namespace) -> None:
    """Print the tables of the planes a ``--perf`` / ``--flow`` run asked
    for — the same formatters ``repro trace --flow`` and a bench
    artifact's sections go through."""
    from repro.obs.flow import format_flow_report
    from repro.obs.perf import format_perf_report

    if args.perf and result.perf_snapshot:
        print()
        print(format_perf_report(result.perf_snapshot))
    if args.flow and result.flow_snapshot:
        print()
        print(format_flow_report(result.flow_snapshot))


def _report_audit(result, enabled: bool) -> int:
    """Print the online-audit verdict; non-zero exit on violations."""
    if not enabled:
        return 0
    print()
    if result.audit_violations:
        for line in result.audit_violations:
            print(f"AUDIT {line}", file=sys.stderr)
        print(
            f"online audit: {len(result.audit_violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print("online audit: clean")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(_base_config(args))
    kind = "wall-clock (live)" if getattr(args, "mode", "sim") == "live" else "simulated"
    print(
        format_table(
            ["metric", "value"],
            _result_rows(result),
            title=f"{args.system} — {args.duration:.0f}s {kind}",
        )
    )
    if args.series:
        samples = [(t, v) for t, v in result.throughput_series if int(t) % 10 == 0]
        print()
        print(format_series(samples, title="throughput", x_label="t (s)", y_label="tps"))
    _report_planes(result, args)
    return _report_audit(result, args.audit)


def cmd_live(args: argparse.Namespace) -> int:
    from repro.runtime.cluster import LiveCluster
    from repro.runtime.metrics import live_stats_rows

    config = _base_config(args)
    report = LiveCluster(
        config,
        transport=args.transport,
        latency_scale=args.latency_scale,
        metrics_port=args.metrics_port,
    ).run()
    print(
        format_table(
            ["metric", "value"],
            _result_rows(report.result),
            title=(
                f"{args.system} — {args.duration:.0f}s wall-clock, "
                f"{report.transport} transport"
            ),
        )
    )
    print()
    print(
        format_table(
            ["substrate", "value"],
            live_stats_rows(report.stats),
            title="live-run health",
        )
    )
    _report_planes(report.result, args)
    return _report_audit(report.result, args.audit)


def cmd_compare(args: argparse.Namespace) -> int:
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    unknown = [name for name in systems if name not in SYSTEMS]
    if unknown:
        print(f"unknown systems: {unknown}; pick from {tuple(SYSTEMS)}", file=sys.stderr)
        return 2
    base = _base_config(args)
    rows = []
    for system in systems:
        result = run_experiment(replace(base, system=system))
        latency = result.latency.row_ms()
        rows.append(
            [system, result.committed, f"{result.throughput_avg:.1f}",
             f"{latency['p90']:.1f}", f"{latency['p99']:.1f}", result.rejected]
        )
    print(
        format_table(
            ["system", "committed", "avg tps", "p90 ms", "p99 ms", "rejected"],
            rows,
            title=f"comparison — {args.duration:.0f}s simulated, same workload",
        )
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.prediction import (
        ArimaPredictor,
        LstmPredictor,
        RandomWalkPredictor,
        SeasonalNaivePredictor,
        evaluate_predictor,
        train_test_split,
    )

    trace = SyntheticAzureTrace(TraceConfig(days=args.days, seed=args.seed))
    series = trace.demand.astype(float).tolist()
    train, test = train_test_split(series, 0.8)
    per_day = trace.config.intervals_per_day
    factories = {
        "random-walk": lambda: RandomWalkPredictor(),
        "seasonal": lambda: SeasonalNaivePredictor(period=per_day),
        "arima": lambda: ArimaPredictor(p=6, d=1, q=1),
        "lstm": lambda: LstmPredictor(window=32, hidden_size=16, epochs=8,
                                      periods=(per_day,), seed=args.seed),
    }
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    unknown = [name for name in names if name not in factories]
    if unknown:
        print(f"unknown models: {unknown}; pick from {sorted(factories)}", file=sys.stderr)
        return 2
    rows = []
    for name in names:
        report = evaluate_predictor(factories[name](), list(train), list(test), name)
        rows.append([name, f"{report.mae:.2f}", f"{report.rmse:.2f}"])
    print(
        format_table(
            ["model", "MAE", "RMSE"],
            rows,
            title=f"walk-forward accuracy on {args.days:.0f} days of demand",
        )
    )
    return 0


def _summarize_trace_file(
    path: str,
    validate: bool,
    audit: bool,
    critical_path: bool = False,
    max_requests: int = 50,
    demand: bool = False,
    flow: bool = False,
) -> int:
    """One streaming pass (``iter_trace``) feeds everything the flags
    ask for — a 100k-entity scale trace never materializes as a list and
    a ``.gz`` is decompressed once."""
    from repro.obs import (
        SCHEMA,
        InvariantAuditor,
        analyze_critical_paths,
        format_audit_report,
        format_critical_path_report,
        format_demand_report,
        format_flow_report,
        iter_trace,
        validate_event,
    )
    from repro.obs.summary import TraceSummaryBuilder

    summary = TraceSummaryBuilder()
    auditor = InvariantAuditor() if audit else None
    errors: list[str] = []

    def folded():
        """The events, each pushed through every fold on its way to the
        one consumer that pulls (the critical-path analysis)."""
        for index, event in enumerate(iter_trace(path)):
            invalid = validate_event(event) if validate else ()
            if invalid:
                # The report is suppressed from here on, so the folds
                # need not survive what the schema already rejected.
                errors.extend(f"event {index}: {error}" for error in invalid)
                continue
            summary.add(event)
            if auditor is not None:
                auditor.observe(event)
            yield event

    try:
        if critical_path:
            paths = analyze_critical_paths(folded(), max_requests=max_requests)
        else:
            for _ in folded():
                pass
        if auditor is not None:
            auditor.finish()
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if errors:
        for error in errors[:20]:
            print(error, file=sys.stderr)
        print(f"{len(errors)} schema error(s) in {path}", file=sys.stderr)
        return 1
    sections = []
    if validate:
        sections.append(f"validated {summary.events} events against {SCHEMA}")
    sections.append(summary.format(source=path))
    if demand:
        sections.append(format_demand_report(summary.demand, source=path))
    if flow:
        sections.append(format_flow_report(summary.flow.snapshot(), source=path))
    if critical_path:
        sections.append(format_critical_path_report(paths))
    if auditor is not None:
        sections.append(format_audit_report(auditor))
    print("\n\n".join(sections))
    return 0 if auditor is None or auditor.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_file is not None:
        return _summarize_trace_file(
            args.trace_file,
            validate=args.validate,
            audit=args.audit,
            critical_path=args.critical_path,
            max_requests=args.max_requests,
            demand=args.demand,
            flow=args.flow,
        )
    trace = SyntheticAzureTrace(TraceConfig(days=args.days, seed=args.seed))
    stats = trace.demand_stats()
    print(
        format_table(
            ["stat", "value"],
            [[key, f"{value:.2f}"] for key, value in stats.items()],
            title="synthetic Azure-like demand trace",
        )
    )
    per_day = trace.config.intervals_per_day
    day = [(float(i), float(v)) for i, v in enumerate(trace.demand[:per_day])]
    print()
    print(format_series(day, title="day 1", x_label="interval", y_label="VM creations"))
    return 0


def top_frame(mode: str, instruments, clock: float) -> str:
    """One ``repro top`` frame: a header line, then the ``--demand``
    report of the in-flight tracker, then (flow plane on) the ``--flow``
    report — the same text ``repro trace`` prints for a trace."""
    from repro.obs.demand import format_demand_report
    from repro.obs.flow import format_flow_report

    demand = instruments.demand
    sections = [
        f"repro top — {mode}  t={clock:.1f}s  requests={demand.requests}",
        format_demand_report(demand),
    ]
    if instruments.flow is not None:
        sections.append(format_flow_report(instruments.flow.snapshot()))
    return "\n\n".join(sections) + "\n"


def cmd_top(args: argparse.Namespace) -> int:
    """Live contention view (plain ANSI, curses-free).

    Frames render from the in-flight trackers; ``--once`` skips the
    animation and prints exactly one final frame after the run (the CI
    smoke, and the sane default when stdout is not a terminal).
    """
    animate = not args.once
    in_place = animate and sys.stdout.isatty()

    def emit_frame(instruments, clock: float, final: bool = False) -> None:
        text = top_frame(args.mode, instruments, clock)
        # ANSI cursor home + erase below: repaint in place, no curses.
        prefix = "\x1b[H\x1b[J" if in_place and not final else ""
        print(prefix + text, flush=True, end="")
        if not in_place and not final:
            print(flush=True)

    def animate_on(kernel, instruments, until: float) -> None:
        """Repaint every ``--refresh`` simulated seconds of a sim run."""
        def frame() -> None:
            if instruments.bus is not None:
                instruments.bus.flush()  # the kernel holds it while it runs
            emit_frame(instruments, kernel.now)
            if kernel.now < until:
                kernel.schedule(args.refresh, frame)

        if animate:
            kernel.schedule(args.refresh, frame)

    if args.mode == "scale":
        from repro.scale import ScaleConfig, run_scale
        from repro.scale.harness import build_scale_deployment

        config = ScaleConfig(
            entities=args.entities,
            duration=args.duration,
            rate=args.rate,
            seed=args.seed,
            demand=True,
            flow=args.flow,
        )
        deployment = build_scale_deployment(config)
        animate_on(deployment.kernel, deployment.instruments, config.duration)
        result = run_scale(config, deployment=deployment)
        emit_frame(deployment.instruments, result.sim_time, final=True)
        return 0

    # Sim and live paths share the experiment harness; metrics forces
    # the EventBus, which is what carries the DemandTap (the scale
    # config above asked for its tracker outright).
    config = replace(_base_config(args), metrics=True)

    if args.mode == "live":
        from repro.runtime.cluster import LiveCluster

        cluster = LiveCluster(
            config,
            metrics_port=args.metrics_port,
            on_tick=(
                (lambda live: emit_frame(live.instruments, live.kernel.now))
                if animate
                else None
            ),
            tick_interval=args.refresh,
        )
        cluster.run()
        emit_frame(cluster.experiment.instruments, args.duration, final=True)
        return 0

    from repro.harness.experiment import Experiment

    experiment = Experiment(config)
    animate_on(experiment.kernel, experiment.instruments, config.duration)
    experiment.start()
    experiment.kernel.run(until=config.duration)
    experiment.collect()
    emit_frame(experiment.instruments, experiment.kernel.now, final=True)
    return 0


def cmd_nemesis(args: argparse.Namespace) -> int:
    from repro.faults import Nemesis, NemesisConfig
    from repro.harness.nemesis import NEMESIS_SYSTEMS, run_nemesis
    from repro.net.regions import PAPER_REGIONS

    systems = tuple(
        name.strip() for name in args.systems.split(",") if name.strip()
    )
    unknown = [name for name in systems if name not in NEMESIS_SYSTEMS]
    if unknown:
        print(
            f"unknown systems: {unknown}; pick from {NEMESIS_SYSTEMS}",
            file=sys.stderr,
        )
        return 2
    nemesis = Nemesis(
        args.seed,
        tuple(PAPER_REGIONS),
        NemesisConfig(duration=args.duration, quiet_period=args.quiet),
    )
    print(f"nemesis schedule (seed {args.seed}):")
    for row in nemesis.describe():
        print(f"  {row}")
    print()
    report = run_nemesis(
        args.seed,
        systems=systems,
        duration=args.duration,
        quiet_period=args.quiet,
        audit=args.audit,
        wal_enabled=not args.disable_wal,
        trace_dir=args.trace_dir,
        drop=args.drop,
        duplicate=args.duplicate,
    )
    rows = []
    for system, verdict in report.verdicts.items():
        result = verdict.result
        rows.append(
            [
                system,
                result.committed,
                result.failed,
                result.unanswered,
                f"{verdict.post_heal_committed:.0f}",
                len(result.audit_violations),
                f"{verdict.unresolved_pledges}/{verdict.pledge_recoveries}",
                "pass" if verdict.passed else "FAIL",
            ]
        )
    print(
        format_table(
            ["system", "committed", "failed", "unanswered",
             "post-heal", "violations", "pledges stuck/recov", "verdict"],
            rows,
            title=(
                f"nemesis — seed {args.seed}, {args.duration:.0f}s, "
                f"drop {args.drop:.0%}, dup {args.duplicate:.0%}, "
                f"final heal t={report.final_heal:.1f}s"
            ),
        )
    )
    for line in report.violations():
        print(f"AUDIT {line}", file=sys.stderr)
    if not report.passed:
        print("nemesis: FAILED", file=sys.stderr)
        return 1
    print("\nnemesis: all systems safe and live")
    return 0


def cmd_sweep_scale(args: argparse.Namespace) -> int:
    from repro.scale import ScaleConfig, sweep_scale

    try:
        counts = [int(part) for part in args.entities.split(",") if part.strip()]
    except ValueError:
        print(f"bad --entities list: {args.entities!r}", file=sys.stderr)
        return 2
    if not counts:
        print("--entities must name at least one point", file=sys.stderr)
        return 2
    base = ScaleConfig(
        regions=args.regions,
        maximum=args.maximum,
        duration=args.duration,
        rate=args.rate,
        seed=args.seed,
        batching=not args.no_batch,
        audit=not args.no_audit,
        trace_path=args.trace,
    )
    results = sweep_scale(counts, base)
    rows = []
    for result in results:
        rows.append(
            [
                result.entities,
                result.submitted,
                result.committed,
                result.rejected,
                result.rounds_triggered,
                result.wire_sent,
                f"{result.wall_seconds:.2f}",
                f"{result.wall_events_per_sec:,.0f}",
                f"{result.wall_messages_per_sec:,.0f}",
                len(result.violations),
            ]
        )
    mode = "batched" if base.batching else "unbatched"
    print(
        format_table(
            ["entities", "requests", "committed", "rejected", "rounds",
             "wire msgs", "wall s", "events/s", "msgs/s", "violations"],
            rows,
            title=(
                f"scale sweep — {args.regions} regions, {mode}, "
                f"{args.duration:.0f}s sim load per point, seed {args.seed}"
            ),
        )
    )
    failed = False
    for result in results:
        for line in result.violations:
            failed = True
            print(f"AUDIT [{result.entities} entities] {line}", file=sys.stderr)
    if failed:
        print("sweep-scale: conservation audit FAILED", file=sys.stderr)
        return 1
    if not args.no_audit:
        print(
            f"\nconservation audit: clean across "
            f"{sum(result.audited for result in results)} audited entity points"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.harness import regression

    figures = regression.load_figures()
    selected = [figure for figure in figures if (args.select or "") in figure.name]
    if not selected:
        print(
            f"no registered benchmark matches {args.select!r}; "
            f"known: {[figure.name for figure in figures]}",
            file=sys.stderr,
        )
        return 2
    names = {figure.name for figure in selected}
    artifacts_dir = Path(args.artifacts)
    baselines_dir = Path(args.baselines or regression.default_baseline_dir())

    if args.list:
        print(
            format_table(
                ["bench", "default tolerance", "overrides", "claim"],
                [
                    [figure.name, figure.default.describe(), len(figure.overrides),
                     figure.doc.strip().partition("\n")[0]]
                    for figure in selected
                ],
                title=f"benchmarks/figures.py rows ({baselines_dir})",
            )
        )
        return 0

    if not args.check:
        print(f"running {len(selected)} figure(s) -> {artifacts_dir}")
        regression.run_figures(selected, artifacts_dir)
    if args.update_baselines:
        # Only artifacts with the paper's shape are promoted; the rest
        # show up as shape / error findings in the verdict below.
        for path in regression.update_baselines(
            artifacts_dir, baselines_dir, names
        ):
            print(f"baseline updated: {path}")
    findings, compared = regression.check_artifacts(
        artifacts_dir, baselines_dir, names, figures
    )
    print(regression.format_report(findings, compared, len(names)))
    return 1 if any(finding.fatal for finding in findings) else 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run any repro subcommand under the wall-clock stack sampler.

    The inner command runs **in this process** so the sampler sees its
    stacks (``bench`` included: its runner is in-process).  With
    ``--events`` a deterministic event profiler is attached to every sim
    kernel the inner command builds.
    """
    from repro.obs import prof

    inner = list(args.cmd)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        print(
            "profile: name a repro subcommand to profile, e.g. "
            "`repro profile run --duration 20` or `repro profile bench`",
            file=sys.stderr,
        )
        return 2
    if inner[0] == "profile":
        print("profile: cannot profile itself", file=sys.stderr)
        return 2

    event_profiler = None
    if args.events:
        event_profiler = prof.EventProfiler()
        prof.set_active(event_profiler)
    sampler = prof.StackSampler(interval=args.interval / 1000.0)
    sampler.start()
    try:
        code = main(inner)
    except SystemExit as exc:  # argparse errors in the inner command
        code = int(exc.code or 0)
    finally:
        sampler.stop()
        prof.set_active(None)

    samples = sampler.write_collapsed(args.out)
    print(f"\nwall-clock profile: {samples} samples -> {args.out}")
    print("render with: flamegraph.pl (or speedscope/inferno) on that file")
    top = sampler.top_rows()
    if top:
        print()
        print(
            format_table(
                ["frame", "samples", "share"],
                top,
                title=f"hottest frames ({args.interval:.0f} ms sampling period)",
            )
        )
    if event_profiler is not None and event_profiler.events:
        print()
        print(
            format_table(
                ["callback", "events", "share", "wall ms", "wall share"],
                event_profiler.rows(),
                title=(
                    f"sim event profile — {event_profiler.events} events "
                    "(counts are seed-deterministic)"
                ),
            )
        )
        if args.events_out:
            from pathlib import Path

            Path(args.events_out).write_text(
                "\n".join(event_profiler.collapsed_lines()) + "\n",
                encoding="utf-8",
            )
            print(f"event profile -> {args.events_out}")
    return code


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds of load (default 120)")
    parser.add_argument("--maximum", type=int, default=5000,
                        help="global token limit M_e (default 5000)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--predictor", choices=PREDICTORS, default="seasonal")
    parser.add_argument("--reallocator", choices=sorted(REALLOCATORS), default="greedy")
    parser.add_argument("--read-ratio", type=float, default=0.0)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="per-message loss probability")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL telemetry trace here; use a .gz "
                             "suffix for gzip "
                             "(summarize it with: python -m repro trace PATH)")
    parser.add_argument("--audit", action="store_true",
                        help="run the online invariant auditor against the "
                             "run's event stream; violations exit non-zero")
    parser.add_argument("--perf", action="store_true",
                        help="record wall-clock perf histograms (kernel "
                             "dispatch, per-phase spans; plus transport/codec "
                             "timing on live runs) and print them")
    parser.add_argument("--flow", action="store_true",
                        help="record wire flow (bytes per message type and "
                             "region link, queue watermarks, coalescing "
                             "efficiency) and print the flow tables; byte "
                             "stamps and flow.* rollups land in --trace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Samya (ICDE 2021) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one system under trace load")
    run_parser.add_argument("--system", choices=SYSTEMS, default="samya-majority")
    run_parser.add_argument("--mode", choices=("sim", "live"), default="sim",
                            help="execution substrate: discrete-event sim "
                                 "(default) or live asyncio (wall-clock!)")
    run_parser.add_argument("--series", action="store_true",
                            help="also print the throughput series")
    _add_experiment_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    live_parser = sub.add_parser(
        "live",
        help="run one system live on asyncio or TCP (wall-clock duration)",
    )
    live_parser.add_argument("--system", choices=SYSTEMS, default="samya-majority")
    live_parser.add_argument("--transport", choices=("asyncio", "tcp"),
                             default="asyncio")
    live_parser.add_argument(
        "--latency-scale", type=float, default=0.05,
        help="compression of the WAN latency matrix (asyncio transport)",
    )
    live_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus /metrics on this localhost port for the "
             "duration of the run (0 = pick a free port)",
    )
    _add_experiment_args(live_parser)
    # Live duration is wall-clock; the sim default of 120 s would be a
    # two-minute hang, so default to a short run.
    live_parser.set_defaults(func=cmd_live, mode="live", duration=10.0)

    compare_parser = sub.add_parser("compare", help="run several systems on the same load")
    compare_parser.add_argument(
        "--systems", default="samya-majority,samya-star,multipaxsys"
    )
    _add_experiment_args(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    predict_parser = sub.add_parser("predict", help="offline predictor bake-off")
    predict_parser.add_argument("--models", default="random-walk,seasonal,arima")
    predict_parser.add_argument("--days", type=float, default=10.0)
    predict_parser.add_argument("--seed", type=int, default=1)
    predict_parser.set_defaults(func=cmd_predict)

    trace_parser = sub.add_parser(
        "trace",
        help="summarize a JSONL telemetry trace, or (with no file) "
             "inspect the synthetic demand trace",
    )
    trace_parser.add_argument(
        "trace_file", nargs="?", default=None, metavar="FILE",
        help="telemetry trace written by run/live --trace",
    )
    trace_parser.add_argument("--validate", action="store_true",
                              help="check every event against the trace schema")
    trace_parser.add_argument("--audit", action="store_true",
                              help="run the invariant auditor offline over "
                                   "the trace; violations exit non-zero")
    trace_parser.add_argument("--demand", action="store_true",
                              help="report token locality, hot entities "
                                   "(bounded top-K sketch), and the "
                                   "prediction scorecard from the trace")
    trace_parser.add_argument("--flow", action="store_true",
                              help="report wire bytes by message type and "
                                   "link, plus queue watermarks, from a "
                                   "flow-enabled trace")
    trace_parser.add_argument("--critical-path", action="store_true",
                              help="reconstruct sampled request flows and "
                                   "attribute their latency to protocol "
                                   "phases and inter-region links")
    trace_parser.add_argument("--max-requests", type=int, default=50,
                              metavar="N",
                              help="request flows to sample for "
                                   "--critical-path (default 50)")
    trace_parser.add_argument("--days", type=float, default=7.0)
    trace_parser.add_argument("--seed", type=int, default=7)
    trace_parser.set_defaults(func=cmd_trace)

    top_parser = sub.add_parser(
        "top",
        help="live contention view: each frame is the --demand report "
             "(plus --flow's with --flow) of the running trackers — "
             "refreshed in place with plain ANSI (no curses)",
    )
    top_parser.add_argument("--mode", choices=("sim", "live", "scale"),
                            default="sim",
                            help="substrate: discrete-event sim (default), "
                                 "live asyncio (wall-clock), or the scale "
                                 "subsystem")
    top_parser.add_argument("--system", choices=SYSTEMS, default="samya-majority")
    top_parser.add_argument("--refresh", type=float, default=1.0,
                            metavar="SECS",
                            help="substrate seconds between frames (default 1)")
    top_parser.add_argument("--once", action="store_true",
                            help="print one final frame after the run "
                                 "instead of animating (the CI smoke)")
    top_parser.add_argument("--entities", type=int, default=10_000,
                            help="entity count (scale mode, default 10000)")
    top_parser.add_argument("--rate", type=float, default=4000.0,
                            help="requests/sec per region (scale mode)")
    top_parser.add_argument("--metrics-port", type=int, default=None,
                            metavar="PORT",
                            help="also serve Prometheus /metrics during a "
                                 "live-mode run (0 = pick a free port)")
    _add_experiment_args(top_parser)
    # 120 s of animation is a lot of terminal; default shorter.
    top_parser.set_defaults(func=cmd_top, duration=30.0)

    profile_parser = sub.add_parser(
        "profile",
        help="run any repro subcommand under the sampling profiler and "
             "write a collapsed-stack flamegraph profile",
    )
    profile_parser.add_argument(
        "--out", default="profile.collapsed", metavar="PATH",
        help="collapsed-stack output file (default profile.collapsed)",
    )
    profile_parser.add_argument(
        "--interval", type=float, default=5.0, metavar="MS",
        help="sampling period in milliseconds (default 5)",
    )
    profile_parser.add_argument(
        "--events", action="store_true",
        help="also attach the deterministic per-callback event profiler "
             "to every sim kernel the command builds",
    )
    profile_parser.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the event profile as collapsed single-frame stacks",
    )
    profile_parser.add_argument(
        "cmd", nargs=argparse.REMAINDER, metavar="COMMAND",
        help="the repro subcommand to profile, e.g. `bench` or "
             "`run --duration 30`",
    )
    profile_parser.set_defaults(func=cmd_profile)

    nemesis_parser = sub.add_parser(
        "nemesis",
        help="run one seeded randomized fault schedule against every "
             "protocol variant, auditing safety and liveness (Jepsen-lite)",
    )
    nemesis_parser.add_argument("--seed", type=int, default=7)
    nemesis_parser.add_argument(
        "--duration", type=float, default=120.0,
        help="simulated seconds per system (default 120)",
    )
    nemesis_parser.add_argument(
        "--quiet", type=float, default=40.0,
        help="fault-free tail before the run ends (default 40)",
    )
    nemesis_parser.add_argument(
        "--systems", default=",".join(("samya-majority", "multipaxsys", "demarcation")),
        help="comma-separated subset of the nemesis systems",
    )
    nemesis_parser.add_argument(
        "--audit", action="store_true",
        help="run the online invariant auditor (recommended; the verdict "
             "column reflects it)",
    )
    nemesis_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one JSONL telemetry trace per system into DIR",
    )
    nemesis_parser.add_argument(
        "--disable-wal", action="store_true",
        help="disable the recovery write-ahead log (crashed sites recover "
             "stale state; the auditor should catch the conservation break)",
    )
    nemesis_parser.add_argument(
        "--drop", type=float, default=0.05, metavar="P",
        help="ambient per-message drop probability on every server link "
             "until the final heal (default 0.05)",
    )
    nemesis_parser.add_argument(
        "--duplicate", type=float, default=0.02, metavar="P",
        help="ambient per-message duplication probability on every server "
             "link until the final heal (default 0.02)",
    )
    nemesis_parser.set_defaults(func=cmd_nemesis)

    sweep_parser = sub.add_parser(
        "sweep-scale",
        help="sweep entity counts on the scale subsystem (sharded "
             "directory, columnar token state, batched Avantan traffic) "
             "and audit per-entity conservation",
    )
    sweep_parser.add_argument(
        "--entities", default="1000,10000,100000",
        help="comma-separated entity counts to sweep (default "
             "1000,10000,100000)",
    )
    sweep_parser.add_argument("--duration", type=float, default=30.0,
                              help="simulated seconds of load per point")
    sweep_parser.add_argument("--rate", type=float, default=4000.0,
                              help="client requests/sec per region")
    sweep_parser.add_argument("--maximum", type=int, default=30,
                              help="tokens per entity M_e (default 30)")
    sweep_parser.add_argument("--regions", type=int, default=3)
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument("--no-batch", action="store_true",
                              help="disable the batching transport layer")
    sweep_parser.add_argument("--no-audit", action="store_true",
                              help="skip the vectorized conservation audit")
    sweep_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a message-plane JSONL trace per point (.gz = gzip)",
    )
    sweep_parser.set_defaults(func=cmd_sweep_scale)

    bench_parser = sub.add_parser(
        "bench",
        help="run the benchmark suite and gate it against committed baselines",
    )
    bench_parser.add_argument(
        "--check", action="store_true",
        help="compare existing artifacts only (skip running the suite)",
    )
    bench_parser.add_argument(
        "--update-baselines", action="store_true",
        help="promote artifacts whose shape checks pass to baselines, then gate",
    )
    bench_parser.add_argument(
        "-k", dest="select", default=None, metavar="SUBSTRING",
        help="only benches whose artifact name contains SUBSTRING",
    )
    bench_parser.add_argument(
        "--artifacts", default=".", metavar="DIR",
        help="where BENCH_*.json artifacts are written/read (default: .)",
    )
    bench_parser.add_argument(
        "--baselines", default=None, metavar="DIR",
        help="committed baselines (default: benchmarks/baselines/)",
    )
    bench_parser.add_argument(
        "--list", action="store_true",
        help="list the figure rows and their tolerances, run nothing",
    )
    bench_parser.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
