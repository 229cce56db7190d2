"""Observability smoke check + tracing-overhead guard.

Run as ``python -m repro.obs.smoke`` (the ``make obs-smoke`` target).
Three things are verified end to end, with ``workers=0`` and ephemeral
ports so the check is hermetic:

1. **Span completeness** — a traced daemon driven by the load generator
   exports a JSONL file in which *every* scheduled (cache-miss) request
   carries the full ``service.request → pool.solve → engine.solve →
   solver:*`` chain, and the ``repro trace`` analyzer produces a
   non-degenerate per-stage breakdown from it.
2. **Prometheus exposition** — ``GET /metrics`` with ``Accept:
   text/plain`` returns parseable 0.0.4 text exposition carrying a
   ``*_window_len`` gauge for every histogram family.
3. **Overhead** — the smoke workload's ``/schedule`` traffic is run
   against a traced (JSONL-exporting) daemon and an untraced one; the
   traced p50 must stay within ``_OVERHEAD_FRAC`` (plus a small absolute
   slack for timer noise) of the untraced p50.  The comparison is
   retried a few times before failing so one CI scheduling hiccup
   doesn't fail the build — but a real regression fails every attempt.
"""

from __future__ import annotations

import os
import sys
import tempfile

from ..service.config import ServiceConfig
from ..service.http11 import request_once
from ..service.loadgen import run_loadgen
from ..service.server import SchedulingService
from ..smoke import Smoke, main
from .prom import parse_prometheus
from .report import group_traces, load_spans, trace_summary

#: traced p50 may exceed untraced p50 by at most this fraction...
_OVERHEAD_FRAC = 0.05
#: ...plus this absolute slack (ms) so sub-millisecond baselines don't
#: turn timer jitter into failures
_OVERHEAD_SLACK_MS = 0.5
_OVERHEAD_ATTEMPTS = 3


def _workload_kwargs() -> dict:
    return {
        "n_requests": 120,
        "concurrency": 8,
        "n_tasks": 8,
        "unique": 30,
        "optimal_frac": 0.1,
        "seed": 7,
    }


async def _run_against(config: ServiceConfig) -> dict:
    # /schedule traffic only: with workers=0 the exact solves of /optimal
    # run in the daemon's process, and spread through the run they would
    # set the p50 that both sides are compared on
    async with SchedulingService(config) as service:
        return await run_loadgen(
            service.config.host,
            service.port,
            **{**_workload_kwargs(), "optimal_frac": 0.0},
        )


async def _check_spans_and_prom(smoke: Smoke) -> None:
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="obs-smoke-")
    os.close(fd)
    try:
        config = ServiceConfig(
            port=0, workers=0, log_interval=0, trace_path=path
        )
        async with SchedulingService(config) as service:
            stats = await run_loadgen(
                service.config.host, service.port, **_workload_kwargs()
            )
            if stats["errors"] or stats["ok"] != stats["requests"]:
                smoke.fail(f"loadgen against traced daemon: {stats}")
            status, body = await request_once(
                service.config.host,
                service.port,
                "GET",
                "/metrics",
                headers={"Accept": "text/plain"},
            )
        _check_prom(status, body.get("text", ""), smoke)

        spans = load_spans(path)
        if not spans:
            smoke.fail("traced daemon exported no spans")
            return
        scheduled = [tv for tv in group_traces(spans) if tv.is_scheduled()]
        if not scheduled:
            smoke.fail("no scheduled traces in the export")
        broken = [tv.trace_id for tv in scheduled if not tv.is_complete()]
        smoke.check(
            not broken,
            f"{len(scheduled)} scheduled traces, every span chain complete",
            f"{len(broken)}/{len(scheduled)} scheduled traces missing "
            f"part of the service→pool→engine→solver chain "
            f"(e.g. {broken[:1]})",
        )
        summary = trace_summary(spans)
        smoke.check(
            bool(summary["stages"]["solve"]["count"]),
            "repro-trace stage breakdown is populated",
            f"empty solve stage in trace summary: {summary}",
        )
    finally:
        os.unlink(path)


def _check_prom(status: int, text: str, smoke: Smoke) -> None:
    """Strict 0.0.4 exposition parse + the window_len contract."""
    if status != 200 or not text:
        smoke.fail(f"prometheus scrape failed: HTTP {status}")
        return
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        smoke.fail(f"prometheus exposition does not parse: {exc}")
        return
    summaries = {
        f
        for f in families
        if f.startswith("repro_") and f"{f}_window_len" in families
    }
    histogramish = {f for f in families if f.endswith("_window_len")}
    if not histogramish:
        smoke.fail("no *_window_len gauges in the exposition")
    else:
        smoke.check(
            len(summaries) == len(histogramish),
            f"prometheus exposition parsed ({len(families)} families, "
            f"window_len on every histogram)",
            f"histogram families without window_len: "
            f"{len(histogramish) - len(summaries)}",
        )


async def _check_overhead(smoke: Smoke) -> None:
    last = ""
    for attempt in range(1, _OVERHEAD_ATTEMPTS + 1):
        fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="obs-overhead-")
        os.close(fd)
        try:
            base = await _run_against(
                ServiceConfig(port=0, workers=0, log_interval=0)
            )
            traced = await _run_against(
                ServiceConfig(
                    port=0, workers=0, log_interval=0, trace_path=path
                )
            )
        finally:
            os.unlink(path)
        p50_base = base["latency_ms"]["p50"]
        p50_traced = traced["latency_ms"]["p50"]
        budget = p50_base * (1 + _OVERHEAD_FRAC) + _OVERHEAD_SLACK_MS
        last = (
            f"p50 untraced {p50_base:.3f} ms vs traced {p50_traced:.3f} ms "
            f"(budget {budget:.3f} ms)"
        )
        if p50_traced <= budget:
            smoke.ok(f"overhead within budget: {last}")
            return
        print(f"  retry {attempt}/{_OVERHEAD_ATTEMPTS}: {last}")
    smoke.fail(f"tracing overhead exceeds {_OVERHEAD_FRAC:.0%}: {last}")


async def check(smoke: Smoke) -> None:
    print("obs-smoke: traced daemon + span completeness + prometheus")
    await _check_spans_and_prom(smoke)
    print("obs-smoke: overhead guard")
    await _check_overhead(smoke)


if __name__ == "__main__":
    sys.exit(main("obs-smoke", check))
