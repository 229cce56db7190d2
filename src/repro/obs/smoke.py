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
3. **Overhead** — the same smoke workload is run against a traced
   (JSONL-exporting) daemon and an untraced one; the traced p50 must stay
   within ``_OVERHEAD_FRAC`` (plus a small absolute slack for timer
   noise) of the untraced p50.  The comparison is retried a few times
   before failing so one CI scheduling hiccup doesn't fail the build —
   but a real regression fails every attempt.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile

from ..service.config import ServiceConfig
from ..service.http11 import request_once
from ..service.loadgen import run_loadgen
from ..service.server import SchedulingService
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
    service = SchedulingService(config)
    await service.start()
    try:
        return await run_loadgen(
            service.config.host, service.port, **_workload_kwargs()
        )
    finally:
        await service.stop()


async def _check_spans_and_prom(failures: list[str]) -> None:
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="obs-smoke-")
    os.close(fd)
    try:
        config = ServiceConfig(
            port=0, workers=0, log_interval=0, trace_path=path
        )
        service = SchedulingService(config)
        await service.start()
        try:
            stats = await run_loadgen(
                service.config.host, service.port, **_workload_kwargs()
            )
            if stats["errors"] or stats["ok"] != stats["requests"]:
                failures.append(f"loadgen against traced daemon: {stats}")
            status, body = await request_once(
                service.config.host,
                service.port,
                "GET",
                "/metrics",
                headers={"Accept": "text/plain"},
            )
            _check_prom(status, body.get("text", ""), failures)
        finally:
            await service.stop()

        spans = load_spans(path)
        if not spans:
            failures.append("traced daemon exported no spans")
            return
        scheduled = [tv for tv in group_traces(spans) if tv.is_scheduled()]
        if not scheduled:
            failures.append("no scheduled traces in the export")
        broken = [tv.trace_id for tv in scheduled if not tv.is_complete()]
        if broken:
            failures.append(
                f"{len(broken)}/{len(scheduled)} scheduled traces missing "
                f"part of the service→pool→engine→solver chain "
                f"(e.g. {broken[0]})"
            )
        else:
            print(
                f"  ok  {len(scheduled)} scheduled traces, every span "
                f"chain complete"
            )
        summary = trace_summary(spans)
        if not summary["stages"]["solve"]["count"]:
            failures.append(f"empty solve stage in trace summary: {summary}")
        else:
            print("  ok  repro-trace stage breakdown is populated")
    finally:
        os.unlink(path)


def _check_prom(status: int, text: str, failures: list[str]) -> None:
    """Minimal 0.0.4 exposition parse + the window_len contract."""
    if status != 200 or not text:
        failures.append(f"prometheus scrape failed: HTTP {status}")
        return
    families: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        if line.startswith("#") or not line.strip():
            continue
        name_part = line.split()[0]
        float(line.rsplit(" ", 1)[1])  # every sample value parses
        if "{" in name_part and not name_part.endswith("}"):
            failures.append(f"malformed label block: {line!r}")
    summaries = {
        f
        for f in families
        if f.startswith("repro_") and f"{f}_window_len" in families
    }
    histogramish = {f for f in families if f.endswith("_window_len")}
    if not histogramish:
        failures.append("no *_window_len gauges in the exposition")
    elif len(summaries) != len(histogramish):
        failures.append(
            f"histogram families without window_len: "
            f"{len(histogramish) - len(summaries)}"
        )
    else:
        print(
            f"  ok  prometheus exposition parsed "
            f"({len(families)} families, window_len on every histogram)"
        )


async def _check_overhead(failures: list[str]) -> None:
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
            print(f"  ok  overhead within budget: {last}")
            return
        print(f"  retry {attempt}/{_OVERHEAD_ATTEMPTS}: {last}")
    failures.append(f"tracing overhead exceeds {_OVERHEAD_FRAC:.0%}: {last}")


async def _main() -> int:
    failures: list[str] = []
    print("obs-smoke: traced daemon + span completeness + prometheus")
    await _check_spans_and_prom(failures)
    print("obs-smoke: overhead guard")
    await _check_overhead(failures)
    if failures:
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print("obs-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(_main()))
