"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``   draw a random §VI workload and write it to a task file
``solve``      solve a task file with ANY registered solver (``--list``)
``schedule``   schedule a task file (S^F1/S^F2/online), print energy + Gantt
``optimal``    solve the exact convex program for a task file
``inspect``    validate and summarize a saved schedule JSON
``experiment`` run one of the paper's figure/table experiments
``serve``      run the asyncio scheduling daemon (:mod:`repro.service`)
``loadgen``    drive a running daemon with the async load generator
``trace``      analyze a JSONL span export (``repro serve --trace``)

``solve`` is the registry-backed front door (:mod:`repro.engine`):
``repro solve tasks.json --solver yds`` reaches the same solver the HTTP
service and the experiments runner would, with the shared post-solve
validation hook applied.  ``schedule`` and ``optimal`` remain as
backward-compatible spellings routed through the same engine.

All task files are the JSON/CSV formats of :mod:`repro.io`; schedules are
the self-contained JSON of :mod:`repro.io.schedio`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]

#: bare aliases of the exact solvers (``repro solve --solver interior-point``)
#: that should receive the optimal-only ``--kernel`` option
_OPTIMAL_BACKENDS = {
    "interior-point", "projected-gradient", "slsqp", "trust-constr"
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Energy-aware scheduling of aperiodic tasks on DVFS multi-core "
            "processors (Li & Wu, ICPP 2014 reproduction)."
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate
    g = sub.add_parser("generate", help="draw a random paper-style workload")
    g.add_argument("output", type=Path, help="output .json or .csv task file")
    g.add_argument("-n", "--n-tasks", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--intensity-low", type=float, default=0.1)
    g.add_argument("--intensity-high", type=float, default=1.0)
    g.add_argument(
        "--xscale", action="store_true", help="use the §VI-C XScale-scaled generator"
    )

    # solve — the uniform registry-backed path
    sv = sub.add_parser(
        "solve", help="solve a task file with any registered solver"
    )
    sv.add_argument(
        "tasks", type=Path, nargs="?",
        help="input .json or .csv task file (omit with --list)",
    )
    sv.add_argument(
        "--solver", default="subinterval-der",
        help="registry name (see --list), default subinterval-der",
    )
    sv.add_argument(
        "--list", action="store_true", dest="list_solvers",
        help="list registered solver names and exit",
    )
    sv.add_argument("-m", "--cores", type=int, default=4)
    sv.add_argument("--alpha", type=float, default=3.0)
    sv.add_argument("--static", type=float, default=0.0, help="static power p0")
    sv.add_argument("--gamma", type=float, default=1.0, help="power scale γ")
    sv.add_argument(
        "--f-max", type=float, default=None,
        help="hard frequency cap (capped exact solvers)",
    )
    sv.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    sv.add_argument("-o", "--output", type=Path, help="write schedule JSON here")
    sv.add_argument(
        "--svg", type=Path, help="write an SVG Gantt chart to this path"
    )
    sv.add_argument(
        "--kernel", choices=["auto", "banded", "schur", "dense"],
        default="auto",
        help="Newton kernel for the optimal:* solvers (default: auto)",
    )
    sv.add_argument(
        "--profile", action="store_true",
        help=(
            "print solver internals (optimal:*: kernel used, per-centering "
            "Newton counts, factorization time, polish iterations) and the "
            "solve's span timings"
        ),
    )

    # schedule
    s = sub.add_parser("schedule", help="schedule a task file")
    s.add_argument("tasks", type=Path, help="input .json or .csv task file")
    s.add_argument("-m", "--cores", type=int, default=4)
    s.add_argument("--alpha", type=float, default=3.0)
    s.add_argument("--static", type=float, default=0.0, help="static power p0")
    s.add_argument(
        "--method",
        choices=["der", "even", "online"],
        default="der",
        help="der = S^F2 (recommended), even = S^F1, online = re-planning",
    )
    s.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    s.add_argument("-o", "--output", type=Path, help="write schedule JSON here")
    s.add_argument(
        "--svg", type=Path, help="write an SVG Gantt chart to this path"
    )

    # optimal
    o = sub.add_parser("optimal", help="solve the exact convex program")
    o.add_argument("tasks", type=Path)
    o.add_argument("-m", "--cores", type=int, default=4)
    o.add_argument("--alpha", type=float, default=3.0)
    o.add_argument("--static", type=float, default=0.0)
    o.add_argument(
        "--solver",
        choices=[
            "interior-point", "projected-gradient", "SLSQP", "trust-constr",
            "optimal:interior-point", "optimal:projected-gradient",
            "optimal:slsqp", "optimal:trust-constr",
        ],
        default="interior-point",
    )

    # inspect
    i = sub.add_parser("inspect", help="validate and summarize a schedule JSON")
    i.add_argument("schedule", type=Path)
    i.add_argument("--gantt", action="store_true")

    # experiment
    e = sub.add_parser("experiment", help="run a paper experiment")
    e.add_argument(
        "name",
        choices=[
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "table2", "core-selection",
            "ablation-der", "ablation-switching", "ablation-two-level",
            "ablation-online",
        ],
    )
    e.add_argument("--reps", type=int, default=20)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--csv", type=Path, help="also write the data as CSV here")

    # serve
    v = sub.add_parser("serve", help="run the asyncio scheduling daemon")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=8421, help="0 = ephemeral")
    v.add_argument(
        "--workers", type=int, default=0,
        help="solver processes (0 = inline thread executor)",
    )
    v.add_argument(
        "--batch-max", type=int, default=32,
        help="most requests queued behind busy workers sent as one dispatch",
    )
    v.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache entries (0 = off)"
    )
    v.add_argument(
        "--max-inflight", type=int, default=256,
        help="shed (429) beyond this many in-progress requests",
    )
    v.add_argument(
        "--timeout", type=float, default=30.0, help="per-request deadline (s)"
    )
    v.add_argument("-m", "--cores", type=int, default=4)
    v.add_argument("--alpha", type=float, default=3.0)
    v.add_argument("--static", type=float, default=0.0)
    v.add_argument(
        "--f-max", type=float, default=None,
        help="admission-control frequency cap (default: uncapped)",
    )
    v.add_argument(
        "--log-interval", type=float, default=60.0,
        help="seconds between metric log lines (0 disables)",
    )
    v.add_argument(
        "--solver-timeout", type=float, default=10.0,
        help="wall-time bound for exact optimal:* solves (s, 0 disables)",
    )
    v.add_argument(
        "--degrade-to", default="subinterval-der",
        help="fallback solver for hung/crashed exact solves ('' disables)",
    )
    v.add_argument(
        "--retry-max", type=int, default=1,
        help="re-dispatches of in-flight work after a worker death",
    )
    v.add_argument(
        "--retry-backoff", type=float, default=0.05,
        help="base of the jittered exponential retry backoff (s)",
    )
    v.add_argument(
        "--chaos", default="", metavar="SPEC",
        help=(
            "enable fault injection, e.g. "
            "'kill=0.05,delay=0.1:0.02,drop=0.02,seed=7'"
        ),
    )
    v.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="export request span trees as JSONL here (repro trace FILE)",
    )
    v.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of traces exported (sampled per trace id)",
    )
    v.add_argument(
        "--shards", type=int, default=0,
        help=(
            "worker shard processes behind a front router "
            "(0 = classic single-process daemon)"
        ),
    )

    # loadgen
    lg = sub.add_parser("loadgen", help="drive a running daemon with load")
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=8421)
    lg.add_argument("-n", "--requests", type=int, default=500)
    lg.add_argument("-c", "--concurrency", type=int, default=16)
    lg.add_argument("--n-tasks", type=int, default=8, help="tasks per request")
    lg.add_argument(
        "--unique", type=int, default=50,
        help="distinct task sets cycled through (< requests warms the cache)",
    )
    lg.add_argument(
        "--optimal-frac", type=float, default=0.0,
        help="fraction of requests sent to /optimal",
    )
    lg.add_argument(
        "--admit-frac", type=float, default=0.0,
        help="fraction of requests sent to /admit",
    )
    lg.add_argument(
        "--admit-stream", action="store_true",
        help=(
            "replay one Poisson arrival stream of -n tasks through /admit "
            "in release order (session-backed incremental admission)"
        ),
    )
    lg.add_argument(
        "--admit-rate", type=float, default=1.0,
        help="Poisson arrival rate for --admit-stream (tasks per time unit)",
    )
    lg.add_argument("-m", "--cores", type=int, default=4)
    lg.add_argument("--alpha", type=float, default=3.0)
    lg.add_argument("--static", type=float, default=0.1)
    lg.add_argument(
        "--method", choices=["der", "even", "online"], default="der"
    )
    lg.add_argument(
        "--include-schedule", action="store_true",
        help="request full schedule JSON bodies (heavier responses)",
    )
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument(
        "--chaos", default="", metavar="SPEC",
        help=(
            "client-side fault injection, e.g. 'malform=0.1,seed=7' "
            "(replaces that fraction of requests with malformed payloads; "
            "each must come back 400)"
        ),
    )
    lg.add_argument(
        "--shards", action="store_true",
        help=(
            "after the run, scrape the target's merged /v1/metrics and "
            "report per-shard request balance (sharded routers only)"
        ),
    )
    lg.add_argument("--json", action="store_true", help="print raw stats JSON")

    # trace
    t = sub.add_parser(
        "trace", help="analyze a JSONL span export from repro serve --trace"
    )
    t.add_argument(
        "spans", type=Path, help="JSONL span file written by the daemon"
    )
    t.add_argument(
        "--json", action="store_true", help="print the raw summary JSON"
    )

    # report
    r = sub.add_parser(
        "report", help="generate the reproduction report from archived CSVs"
    )
    r.add_argument(
        "results_dir", type=Path, nargs="?", default=Path("results"),
        help="directory holding figN.csv archives (default: results/)",
    )
    r.add_argument("-o", "--output", type=Path, help="write markdown here")
    return parser


def _power(args) -> "PolynomialPower":
    from .power import PolynomialPower

    return PolynomialPower(alpha=args.alpha, static=args.static)


def _cmd_generate(args) -> int:
    from .io import save_taskset
    from .workloads.generator import (
        PaperWorkloadConfig,
        paper_workload,
        xscale_workload,
    )

    rng = np.random.default_rng(args.seed)
    if args.xscale:
        tasks = xscale_workload(
            rng,
            n_tasks=args.n_tasks,
            intensity_low=args.intensity_low,
            intensity_high=args.intensity_high,
        )
    else:
        tasks = paper_workload(
            rng,
            PaperWorkloadConfig(
                n_tasks=args.n_tasks,
                intensity_low=args.intensity_low,
                intensity_high=args.intensity_high,
            ),
        )
    save_taskset(tasks, args.output)
    print(f"wrote {len(tasks)} tasks to {args.output}")
    return 0


def _cmd_solve(args) -> int:
    from .engine import (
        Platform,
        SolveRequest,
        UnknownSolverError,
        solve,
        solver_names,
    )
    from .io import load_taskset, save_schedule
    from .power import PolynomialPower

    if args.list_solvers:
        for name in solver_names():
            print(name)
        return 0
    if args.tasks is None:
        print("error: a task file is required (or use --list)")
        return 2
    try:
        tasks = load_taskset(args.tasks)
    except FileNotFoundError:
        print(f"error: task file {args.tasks} does not exist")
        return 2
    platform = Platform(
        m=args.cores,
        power=PolynomialPower(
            alpha=args.alpha, static=args.static, gamma=args.gamma
        ),
        f_max=args.f_max,
    )
    options = {}
    if args.solver.split(":", 1)[0] in {"optimal", *_OPTIMAL_BACKENDS}:
        options["kernel"] = args.kernel
    try:
        if args.profile:
            # capture the solve's span tree so the profile report can show
            # where the wall time went, not just the solver's own extras
            from .obs import capture

            with capture() as profile_spans:
                result = solve(
                    args.solver,
                    SolveRequest(tasks=tasks, platform=platform),
                    **options,
                )
        else:
            profile_spans = []
            result = solve(
                args.solver,
                SolveRequest(tasks=tasks, platform=platform),
                **options,
            )
    except UnknownSolverError:
        print(
            f"error: unknown solver {args.solver!r} — registered solvers: "
            f"{', '.join(solver_names())} (see also: repro solve --list)"
        )
        return 2
    print(f"solver: {result.solver}  kind: {result.kind}")
    print(
        f"tasks: {len(tasks)}  cores: {args.cores}  "
        f"power: p(f)={args.gamma:g}·f^{args.alpha:g}+{args.static:g}"
    )
    print(f"energy: {result.energy:.6g}")
    print(f"solve time: {result.wall_time_s * 1e3:.2f} ms")
    for key in ("replans", "iterations", "backend", "cores_used"):
        if key in result.extras:
            print(f"{key}: {result.extras[key]}")
    if args.profile:
        from .obs.profile import format_solve_profile

        print(format_solve_profile(result, profile_spans))
    if result.deadline_misses:
        print(f"deadline misses: {list(result.deadline_misses)}")
    print(
        "validation: "
        + ("OK" if not result.violations else f"{len(result.violations)} violations!")
    )
    if result.schedule is not None:
        if args.gantt:
            from .analysis import render_gantt

            print(render_gantt(result.schedule))
        if args.output:
            save_schedule(result.schedule, args.output)
            print(f"schedule written to {args.output}")
        if args.svg:
            from .analysis import gantt_svg

            args.svg.write_text(
                gantt_svg(result.schedule, title=f"{result.solver} schedule")
            )
            print(f"SVG written to {args.svg}")
    return 0 if result.feasible else 1


def _cmd_schedule(args) -> int:
    from .analysis import render_gantt
    from .engine import Platform, SolveRequest, solve
    from .io import load_taskset, save_schedule

    tasks = load_taskset(args.tasks)
    request = SolveRequest(
        tasks=tasks, platform=Platform(m=args.cores, power=_power(args))
    )
    result = solve(args.method, request)  # the registry maps legacy aliases
    schedule, energy = result.schedule, result.energy
    if args.method == "online":
        print(f"online schedule: {result.extras['replans']} re-plans")
    else:
        print(f"schedule kind: {result.kind}")
    print(f"tasks: {len(tasks)}  cores: {args.cores}  power: p(f)=f^{args.alpha:g}+{args.static:g}")
    print(f"energy: {energy:.6g}")
    issues = result.violations
    print(f"validation: {'OK' if not issues else f'{len(issues)} violations!'}")
    if args.gantt:
        print(render_gantt(schedule))
    if args.output:
        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    if args.svg:
        from .analysis import gantt_svg

        args.svg.write_text(gantt_svg(schedule, title=f"{args.method} schedule"))
        print(f"SVG written to {args.svg}")
    return 0 if not issues else 1


def _cmd_optimal(args) -> int:
    from .engine import Platform, SolveRequest, solve
    from .io import load_taskset

    tasks = load_taskset(args.tasks)
    request = SolveRequest(
        tasks=tasks, platform=Platform(m=args.cores, power=_power(args))
    )
    result = solve(args.solver, request, validate=False, materialize=False)
    print(
        f"solver: {result.extras['backend']}  "
        f"iterations: {result.extras['iterations']}"
    )
    print(f"optimal energy: {result.energy:.8g}")
    with np.printoptions(precision=4, suppress=True):
        print(f"per-task available times: {result.extras['available_times']}")
        print(f"per-task frequencies:     {result.extras['frequencies']}")
    return 0


def _cmd_inspect(args) -> int:
    from .analysis import render_gantt
    from .io import load_schedule
    from .sim import execute_schedule, validate_schedule

    schedule = load_schedule(args.schedule)
    print(f"{len(schedule)} segments, {len(schedule.tasks)} tasks, {schedule.n_cores} cores")
    print(f"planned energy: {schedule.total_energy():.6g}")
    issues = validate_schedule(schedule)
    if issues:
        print(f"INVALID — {len(issues)} violations:")
        for v in issues[:10]:
            print(f"  {v}")
        return 1
    report = execute_schedule(schedule)
    print(f"replayed energy: {report.total_energy:.6g}")
    print(f"deadline misses: {report.deadline_misses or 'none'}")
    print(f"preemptions: {schedule.preemption_count()}  migrations: {schedule.migration_count()}")
    if args.gantt:
        print(render_gantt(schedule))
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments as exps

    modules = {
        "fig6": exps.fig6, "fig7": exps.fig7, "fig8": exps.fig8,
        "fig9": exps.fig9, "fig10": exps.fig10, "fig11": exps.fig11,
        "table2": exps.table2,
        "core-selection": exps.core_selection_exp,
        "ablation-der": exps.ablation_der,
        "ablation-switching": exps.ablation_switching,
        "ablation-two-level": exps.ablation_two_level,
        "ablation-online": exps.ablation_online,
    }
    mod = modules[args.name]
    kwargs = {"reps": args.reps, "seed": args.seed}
    if args.name in {"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2"}:
        kwargs["workers"] = args.workers
    result = mod.run(**kwargs)
    print(result.format())
    if args.csv and hasattr(result, "to_csv"):
        args.csv.write_text(result.to_csv())
        print(f"CSV written to {args.csv}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import errno
    import logging

    from .service import ServiceConfig, run_service

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            batch_max=args.batch_max,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            request_timeout=args.timeout,
            m=args.cores,
            alpha=args.alpha,
            static=args.static,
            f_max=args.f_max,
            log_interval=args.log_interval,
            solver_timeout=args.solver_timeout,
            degrade_to=args.degrade_to,
            retry_max=args.retry_max,
            retry_backoff=args.retry_backoff,
            faults=args.chaos,
            trace_path=str(args.trace) if args.trace else "",
            trace_sample=args.trace_sample,
            shards=args.shards,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        if config.shards > 0:
            from .service.router import run_sharded_service

            asyncio.run(run_sharded_service(config))
        else:
            asyncio.run(run_service(config))
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            print(
                f"error: {args.host}:{args.port} is already in use — stop "
                f"the other process or pass --port 0 for an ephemeral port"
            )
            return 1
        raise
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json as _json

    from .service.loadgen import format_stats, run_loadgen

    stats = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            n_requests=args.requests,
            concurrency=args.concurrency,
            n_tasks=args.n_tasks,
            unique=args.unique,
            optimal_frac=args.optimal_frac,
            admit_frac=args.admit_frac,
            m=args.cores,
            alpha=args.alpha,
            static=args.static,
            method=args.method,
            include_schedule=args.include_schedule,
            seed=args.seed,
            chaos=args.chaos,
            admit_stream=args.admit_stream,
            admit_rate=args.admit_rate,
            shard_report=args.shards,
        )
    )
    print(_json.dumps(stats) if args.json else format_stats(stats))
    ok = stats["errors"] == 0 and stats["ok"] > 0
    if stats.get("chaos"):
        # injected malformed payloads must all be rejected with 400
        ok = ok and (
            stats["chaos"]["malformed_rejected"]
            == stats["chaos"]["malformed_sent"]
        )
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    import json as _json

    from .obs.report import format_trace_report, load_spans, trace_summary

    if not args.spans.exists():
        print(f"error: span file {args.spans} does not exist")
        return 2
    spans = load_spans(args.spans)
    if not spans:
        print(f"no spans found in {args.spans}")
        return 1
    if args.json:
        print(_json.dumps(trace_summary(spans), indent=2))
    else:
        print(format_trace_report(spans))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import generate_report

    if not args.results_dir.is_dir():
        print(f"error: {args.results_dir} is not a directory")
        return 1
    report = generate_report(args.results_dir)
    if args.output:
        args.output.write_text(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0 if "❌" not in report else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "schedule": _cmd_schedule,
    "optimal": _cmd_optimal,
    "inspect": _cmd_inspect,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
