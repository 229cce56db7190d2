"""Per-layer metrics of the traced run.

Daemon workloads run once more on a fresh ``repro serve --trace FILE``
with the same inputs; the stage table comes from that run's own spans
(``repro.obs.report``) and a ``/v1/metrics`` scrape.  Stages the daemon
does not span are timed here, in-process, by calling the same public
functions on the same generated inputs.  The exact solver, which the
daemon workloads never call, runs in-process on serve-cold's task sets
under ``obs.capture()`` with a benchmark span around each public call.

Every traced run reports every metric of :data:`PER_LAYER`; a layer the
workload's timed path never enters reads 0.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from repro.core.allocation import build_allocation_plan
from repro.core.ideal import solve_ideal
from repro.core.intervals import Timeline
from repro.core.scheduler import SubintervalScheduler
from repro.engine import Platform, SolveRequest, solve
from repro.io.schedio import schedule_to_json
from repro.obs import context as obs
from repro.obs.report import critical_path, group_traces, load_spans, stage_breakdown
from repro.service.protocol import (
    AdmitRequest,
    ScheduleRequest,
    canonical_order,
    canonical_plan_key,
)

import inputs
from measure import percentile, unattributed_ms
from serve import Daemon, encode_request, fetch, run_async, trace_id

#: every per-layer metric and its unit, grouped by module
PER_LAYER = {
    "server.request_ms": "ms",
    "server.wire_ms": "ms",
    "server.resp_kb": "KB",
    "server.shed": "count",
    "server.timeouts": "count",
    "protocol.parse_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.probe_ms": "ms",
    "batcher.queue_ms": "ms",
    "batcher.jobs_per_batch": "count",
    "pool.solve_ms": "ms",
    "pool.pack_ms": "ms",
    "pool.fused_frac": "ratio",
    "pool.dispatches_per_op": "count",
    "pool.restarts": "count",
    "pool.retries": "count",
    "pool.abandoned": "count",
    "schedio.encode_ms": "ms",
    "engine.heuristic_ms": "ms",
    "core.timeline_ms": "ms",
    "core.ideal_ms": "ms",
    "core.alloc_ms": "ms",
    "core.final_ms": "ms",
    "engine.optimal_ms": "ms",
    "optimal.warm_ms": "ms",
    "optimal.center_ms": "ms",
    "optimal.polish_ms": "ms",
    "optimal.newton_iters": "count",
    "optimal.polish_iters": "count",
    "optimal.factor_ms": "ms",
    "optimal.nec_f2": "ratio",
    "admission.check_ms": "ms",
    "admission.check_late_ms": "ms",
    "admission.accept_frac": "ratio",
    "incremental.delta_ms": "ms",
    "incremental.touched_ratio": "ratio",
    "incremental.subintervals": "count",
    "obs.trace_overhead_pct": "%",
    "obs.spans_per_op": "count",
    "client.late_ms": "ms",
    "client.wait_ms": "ms",
    "unattributed_ms": "ms",
}

#: task sets timed in-process per stage, and exact solves on serve-cold's sets
IN_PROCESS, EXACT_SOLVES = 100, 6


@dataclass
class Traced:
    """The traced phase of a daemon workload."""

    result: object  # what the workload's drive function returned
    spans: list
    before: dict  # /v1/metrics before the phase
    after: dict  # and after it


class Table:
    """Per-layer values of one traced run, with the notes printed beside them."""

    def __init__(self):
        self.values = {name: (0.0, unit, 0) for name, unit in PER_LAYER.items()}
        self.notes: list[str] = []
        self.stages: dict[str, float] = {}  # p50 ms of each stage whose time is all its own

    def put(self, name: str, value: float, samples: int) -> None:
        self.values[name] = (float(value), PER_LAYER[name], int(samples))

    def p50(self, name: str, samples) -> None:
        samples = list(samples)
        if samples:
            self.put(name, percentile(samples, 50), len(samples))


def p50(samples) -> float:
    samples = list(samples)
    return percentile(samples, 50) if samples else 0.0


async def _scrape(port: int) -> dict:
    status, body = await fetch(port, encode_request("GET", "/v1/metrics"))
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    return json.loads(body)["result"]


def traced_daemon_phase(ctx, warmup, drive, prepare=None) -> Traced:
    """Run ``drive(daemon)`` on a fresh daemon exporting its spans to a file.

    ``prepare(daemon)`` runs first, outside the counters the phase reports.
    """
    trace_file = ctx.workdir / "trace.jsonl"
    trace_file.unlink(missing_ok=True)
    daemon = Daemon(ctx.root, ctx.workdir, trace_file)
    try:
        daemon.start(warmup)
        if prepare is not None:
            prepare(daemon)
        before = run_async(_scrape(daemon.port))
        result = drive(daemon)
        after = run_async(_scrape(daemon.port))
    finally:
        daemon.stop()
    spans = load_spans(trace_file)
    trace_file.unlink()
    return Traced(result, spans, before, after)


def _counter(traced: Traced, name: str) -> float:
    get = lambda page: page["metrics"]["counters"].get(name, 0)  # noqa: E731
    return get(traced.after) - get(traced.before)


def _span_table(table: Table, ops, traced: Traced, untraced_ops, workload: str) -> list[dict]:
    """Stage self times, wire time and the unattributed remainder from the trace.

    Self times are taken along each trace's critical path: a span's
    duration minus that of the child the path descends into.  Returns the
    spans of the timed operations' traces: warm-up and priming requests
    carry other trace ids and are left out.
    """
    # traces are matched to requests by the x-trace-id the client sent:
    # trace_summary's scheduled and cache views only know the legacy paths
    by_id = {tv.trace_id: tv for tv in group_traces(traced.spans)}
    matched = [(op, by_id[trace_id(op.index)]) for op in ops if trace_id(op.index) in by_id]
    if not matched:
        raise RuntimeError("no client request found in the trace")
    spans = [sp for _, tv in matched for sp in tv.spans]
    request_ms, wire, wait, per_trace = [], [], [], []
    for op, tv in matched:
        root = tv.root
        request_ms.append(float(root["dur_ms"]))
        wire.append((op.done - op.started) * 1e3 - float(root["dur_ms"]))
        wait.append((op.started - op.due) * 1e3)
        path: dict[str, float] = {}
        for sp, self_ms in critical_path(tv):
            path[sp["name"]] = path.get(sp["name"], 0.0) + self_ms
        per_trace.append(path)
    table.p50("server.request_ms", request_ms)
    table.p50("server.wire_ms", wire)
    table.p50("client.wait_ms", wait)
    table.put("obs.spans_per_op", len(spans) / len(matched), len(matched))
    table.put("server.resp_kb", statistics.fmean(len(op.body) for op in ops) / 1024, len(ops))

    client = {"client.wait": p50(wait), "server.wire": p50(wire)}
    on_path = {
        name: p50(t.get(name, 0.0) for t in per_trace)
        for name in sorted({n for t in per_trace for n in t})
    }
    e2e = [op.latency_ms for op, _ in matched]
    e2e_p50 = p50(e2e)
    stage_p50s = [*client.values(), *on_path.values()]
    table.put("unattributed_ms", unattributed_ms(e2e_p50, stage_p50s), len(matched))
    base = p50(op.latency_ms for op in untraced_ops)
    table.put("obs.trace_overhead_pct", (e2e_p50 / base - 1.0) * 100.0, len(matched))

    breakdown = stage_breakdown(spans)
    # a span without children spends all its duration on its own stage
    parents = {sp.get("parent_id") for sp in spans}
    leaves = {sp["name"] for sp in spans if sp["span_id"] not in parents}
    table.stages = {**client, **{name: breakdown[name]["p50"] for name in leaves}}
    median_trace = sorted(matched, key=lambda m: m[0].latency_ms)[len(matched) // 2][1]
    path = " > ".join(f"{sp['name']} ({ms:.3f})" for sp, ms in critical_path(median_trace))
    table.notes.append(
        f"{workload} stage table (p50 ms; self = along the critical path, - = off it; "
        f"span = the span's whole duration):"
    )
    rows = [(name, value, None, len(matched)) for name, value in client.items()]
    rows += [(name, on_path.get(name), st["p50"], st["count"]) for name, st in breakdown.items()]
    for name, self_p50, dur, count in sorted(rows, key=lambda r: (-(r[1] or 0.0), -(r[2] or 0.0))):
        self_text = "-" if self_p50 is None else f"{self_p50:.3f}"
        dur_text = "-" if dur is None else f"{dur:.3f}"
        table.notes.append(f"  {name:<34s} self {self_text:>9}  span {dur_text:>9}  n={count}")
    table.notes.append(f"  {'end to end (traced)':<34s} {e2e_p50:14.3f}  n={len(matched)}")
    table.notes.append(f"  critical path of the median trace: {path}")
    return spans


def _service_counters(table: Table, traced: Traced, n_ops: int) -> None:
    hits, misses = _counter(traced, "cache_hits"), _counter(traced, "cache_misses")
    if hits + misses:
        table.put("cache.hit_ratio", hits / (hits + misses), hits + misses)
    table.put("server.shed", _counter(traced, "shed_total"), n_ops)
    table.put("server.timeouts", _counter(traced, "timeout_total"), n_ops)
    table.put("pool.restarts", _counter(traced, "worker_restarts"), n_ops)
    table.put("pool.retries", _counter(traced, "job_retries"), n_ops)
    table.put("pool.abandoned", _counter(traced, "jobs_abandoned"), n_ops)
    dispatches = traced.after["pool"]["dispatches"] - traced.before["pool"]["dispatches"]
    table.put("pool.dispatches_per_op", dispatches / n_ops, n_ops)
    batches = traced.after["batcher"]["batches"] - traced.before["batcher"]["batches"]
    jobs = traced.after["batcher"]["jobs"] - traced.before["batcher"]["jobs"]
    if batches:
        table.put("batcher.jobs_per_batch", jobs / batches, batches)


def _spans_named(spans: list[dict], name: str) -> list[dict]:
    return [sp for sp in spans if sp["name"] == name]


def _lateness(table: Table, ops) -> None:
    late = [(op.sent - op.due) * 1e3 for op in ops]
    table.put("client.late_ms", percentile(late, 99), len(late))


def _timed(fn, items) -> list[float]:
    out = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _parse_schedule(body: dict) -> None:
    req = ScheduleRequest.from_body(body)
    canonical_plan_key(sorted(req.tasks, key=canonical_order), req.m, req.power, req.solver)


def _core_stages(table: Table, tasksets) -> None:
    """The pipeline stages, timed one by one on the workload's own task sets."""
    power = inputs.power()
    times = {"timeline": [], "ideal": [], "alloc": [], "final": []}
    for tasks in tasksets[:IN_PROCESS]:
        t0 = time.perf_counter()
        timeline = Timeline(tasks)
        t1 = time.perf_counter()
        ideal = solve_ideal(tasks, power)
        t2 = time.perf_counter()
        build_allocation_plan(timeline, inputs.M, "der", ideal=ideal)
        t3 = time.perf_counter()
        sch = SubintervalScheduler(tasks, inputs.M, power, timeline=timeline)
        sch.plan("der")  # ideal and plan cached: final() times refinement and packing
        t4 = time.perf_counter()
        sch.final("der")
        t5 = time.perf_counter()
        for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t5 - t4)):
            times[key].append(dt * 1e3)
    for key, samples in times.items():
        table.p50(f"core.{key}_ms", samples)


# -- the exact solver -----------------------------------------------------------

#: the four heuristic schedules of a replication: (registry name, stage)
HEURISTICS = (
    ("subinterval-even", "intermediate"),
    ("subinterval-even", "final"),
    ("subinterval-der", "intermediate"),
    ("subinterval-der", "final"),
)


def traced_replication(tasks, m: int, power) -> tuple[list[dict], object, list]:
    """One replication's public calls, each under a benchmark span.

    The same calls, with the same options, as
    ``repro.experiments.runner.evaluate_taskset``.
    """
    req = SolveRequest(tasks=tasks, platform=Platform(m=m, power=power))
    with obs.capture() as spans, obs.span("bench.replication"):
        with obs.span("bench.optimal"):
            opt = solve("optimal:interior-point", req, validate=False, materialize=False, warm="pg")
        heuristics = []
        for name, stage in HEURISTICS:
            with obs.span("bench.heuristic"):
                heuristics.append(solve(name, req, validate=False, stage=stage))
    return spans, opt, heuristics


def _is_exact(span: dict) -> bool:
    return span["name"] == "engine.solve" and span["attrs"]["solver"].startswith("optimal:")


def _exact_table(table: Table, solves) -> None:
    """optimal.* from the solver spans' ``ip.center`` events and ``SolveResult.extras``."""
    optimal_ms, warm, center, polish, newton, polish_it, factor, nec = ([] for _ in range(8))
    for spans, opt, heuristics in solves:
        optimal_ms += [float(sp["dur_ms"]) for sp in spans if _is_exact(sp)]
        for sp in spans:
            if sp["name"] != "solver:optimal:interior-point":
                continue
            events = [e["t_ms"] for e in sp["attrs"].get("events", []) if e["name"] == "ip.center"]
            if events:
                warm.append(events[0])
                center.append(events[-1] - events[0])
                polish.append(float(sp["dur_ms"]) - events[-1])
        newton.append(opt.extras.get("newton_iterations", 0))
        polish_it.append(opt.extras.get("polish_iters", 0))
        factor.append(opt.extras.get("factor_time_s", 0.0) * 1e3)
        nec.append(heuristics[-1].energy / opt.energy)
    table.p50("engine.optimal_ms", optimal_ms)
    table.p50("optimal.warm_ms", warm)
    table.p50("optimal.center_ms", center)
    table.p50("optimal.polish_ms", polish)
    table.put("optimal.newton_iters", statistics.fmean(newton), len(newton))
    table.put("optimal.polish_iters", statistics.fmean(polish_it), len(polish_it))
    table.put("optimal.factor_ms", statistics.fmean(factor), len(factor))
    table.put("optimal.nec_f2", statistics.fmean(nec), len(nec))
    pg = sum(warm) + sum(polish)
    share = pg / sum(optimal_ms) if optimal_ms else 0.0
    verdict = "CONFIRMED" if share > 0.5 else "REFUTED"
    table.notes.append(
        f"prediction 'projected-gradient time (warm seed + polish) is most of "
        f"engine.optimal_ms': {verdict} — {share:.1%} of {sum(optimal_ms):.1f} ms "
        f"over {len(optimal_ms)} exact solves (centering {sum(center) / max(sum(optimal_ms), 1e-9):.1%})"
    )


# -- per-workload tables --------------------------------------------------------


def serve_layers(workload, untraced_ops, traced, checker, tasksets) -> Table:
    ops = traced.result
    table = Table()
    spans = _span_table(table, ops, traced, untraced_ops, workload)
    _service_counters(table, traced, len(ops))
    _lateness(table, ops)
    table.p50("cache.probe_ms", (sp["dur_ms"] for sp in _spans_named(spans, "cache.probe")))
    table.p50("batcher.queue_ms", (sp["dur_ms"] for sp in _spans_named(spans, "batch.queue")))
    pool = _spans_named(spans, "pool.solve")
    table.p50("pool.solve_ms", (sp["dur_ms"] for sp in pool))
    table.p50("pool.pack_ms", (sp["dur_ms"] for sp in _spans_named(spans, "pool.pack")))
    if pool:
        table.put("pool.fused_frac", sum(bool(sp["attrs"].get("fused")) for sp in pool) / len(pool), len(pool))
    bodies = [inputs.schedule_body(ts) for ts in tasksets[:IN_PROCESS]]
    table.p50("protocol.parse_ms", _timed(_parse_schedule, bodies))
    if workload == "serve-cold":
        table.p50(
            "schedio.encode_ms",
            _timed(lambda s: schedule_to_json(s, indent=None), checker.schedules[:IN_PROCESS]),
        )
        table.p50("engine.heuristic_ms", (sp["dur_ms"] for sp in _spans_named(spans, "engine.solve")))
        _core_stages(table, [inputs.taskset(rows) for rows in tasksets[:IN_PROCESS]])
        solves = [
            traced_replication(inputs.taskset(rows), inputs.M, inputs.power())
            for rows in tasksets[:EXACT_SOLVES]
        ]
        _exact_table(table, solves)
        largest = max(table.stages, key=table.stages.get)
        verdict = "CONFIRMED" if largest == "batch.queue" else "REFUTED"
        table.notes.append(
            f"prediction 'batch-window wait is serve-cold's largest stage': {verdict} — "
            f"of the spans without children and the client's wait and wire time, the "
            f"largest is {largest} at {table.stages[largest]:.3f} ms "
            f"(batch.queue {table.stages.get('batch.queue', 0.0):.3f} ms)"
        )
    return table


def admit_layers(untraced_episodes, traced, replays, streams) -> Table:
    episodes = traced.result
    ops = [op for ep in episodes for op in ep["ops"]]
    untraced_ops = [op for ep in untraced_episodes for op in ep["ops"]]
    table = Table()
    spans = _span_table(table, ops, traced, untraced_ops, "admit-stream")
    _service_counters(table, traced, len(ops))
    table.p50("incremental.delta_ms", (sp["dur_ms"] for sp in _spans_named(spans, "session.delta")))
    acks = [json.loads(op.body)["result"] for op in ops]
    accepted = [a for a in acks if a["accepted"]]
    table.put("admission.accept_frac", len(accepted) / len(acks), len(acks))
    if accepted:
        table.put(
            "incremental.touched_ratio",
            statistics.fmean(a["touched_subintervals"] / a["total_subintervals"] for a in accepted),
            len(accepted),
        )
    peeks = [json.loads(ep["peek"][1])["result"]["n_subintervals"] for ep in episodes]
    table.put("incremental.subintervals", statistics.fmean(peeks), len(peeks))
    bodies = [inputs.admit_body(task) for stream in streams for task in stream][:IN_PROCESS]
    table.p50("protocol.parse_ms", _timed(AdmitRequest.from_body, bodies))
    checks = [ms for r in replays for ms in r["check_ms"]]
    late_checks = [ms for r in replays for ms in r["check_ms"][-len(r["check_ms"]) // 10 :]]
    table.p50("admission.check_ms", checks)
    table.p50("admission.check_late_ms", late_checks)
    late_p50 = p50(op.latency_ms for ep in episodes for op in ep["ops"][-len(ep["ops"]) // 10 :])
    share = p50(late_checks) / late_p50 if late_p50 else 0.0
    verdict = "CONFIRMED" if share > 0.5 else "REFUTED"
    table.notes.append(
        f"prediction 'admission.check_ms accounts for most of late_p50_ms': {verdict} — "
        f"late-tenth check p50 {p50(late_checks):.3f} ms is {share:.1%} of the traced "
        f"late_p50 {late_p50:.3f} ms"
    )
    return table
