"""``repro trace`` — analyze a JSONL span export into a latency report.

Consumes the file ``repro serve --trace out.jsonl`` writes (one span per
line, the dict shape of :mod:`repro.obs.context`) and answers the three
questions a latency investigation starts with:

* **where does the time go?** — per-stage breakdown: every span name
  aggregated into count / mean / p50 / p95 / max milliseconds, plus the
  derived queue → solve → pack → validate stage view of scheduled
  requests;
* **what's the critical path?** — for the slowest traces, the chain of
  spans from the root to the last thing that finished, with self-time
  attribution per link;
* **did the cache help?** — hit/miss attribution: how many requests were
  answered from the plan cache, and the p50 latency of each population.

Traces whose scheduled request is missing part of its span tree (a
worker died before reporting and no retry landed) are counted as
*incomplete* rather than silently skewing the stage statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..service.protocol import base_path
from .metrics import percentile

__all__ = [
    "load_spans",
    "group_traces",
    "TraceView",
    "stage_breakdown",
    "critical_path",
    "cache_attribution",
    "trace_summary",
    "format_trace_report",
]

#: span names a complete scheduled (cache-miss) request must contain —
#: the service→pool→engine→solver chain of the acceptance criteria
_REQUIRED_CHAIN = ("service.request", "pool.solve", "engine.solve")

#: derived stage view: label → span name whose duration feeds it
_STAGES = (
    ("queue/batch", "batch.queue"),
    ("solve", "engine.solve"),
    ("pack", "pool.pack"),
    ("validate", "engine.validate"),
)


def load_spans(path) -> list[dict]:
    """Read a JSONL span export, skipping blank/corrupt lines."""
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                sp = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn line from a crashed writer
            if isinstance(sp, dict) and "trace_id" in sp and "name" in sp:
                spans.append(sp)
    return spans


@dataclass
class TraceView:
    """All spans of one trace, indexed for tree walks."""

    trace_id: str
    spans: list[dict] = field(default_factory=list)

    @property
    def root(self) -> dict | None:
        """The service-side root span (no parent), if it was exported."""
        ids = {sp["span_id"] for sp in self.spans}
        for sp in self.spans:
            if sp.get("parent_id") in (None, "") or sp["parent_id"] not in ids:
                if sp["name"] == "service.request":
                    return sp
        for sp in self.spans:
            if sp.get("parent_id") in (None, ""):
                return sp
        return None

    def children(self, span_id: str) -> list[dict]:
        kids = [sp for sp in self.spans if sp.get("parent_id") == span_id]
        kids.sort(key=lambda s: s.get("start", 0.0))
        return kids

    def by_name(self, name: str) -> list[dict]:
        return [sp for sp in self.spans if sp["name"] == name]

    @property
    def duration_ms(self) -> float:
        root = self.root
        if root is not None:
            return float(root.get("dur_ms", 0.0))
        return max((float(sp.get("dur_ms", 0.0)) for sp in self.spans), default=0.0)

    def endpoint(self) -> str:
        """The root span's request path without its version prefix."""
        return base_path((self.root or {}).get("attrs", {}).get("path", ""))

    @property
    def names(self) -> set[str]:
        return {sp["name"] for sp in self.spans}

    def is_scheduled(self) -> bool:
        """True when this trace dispatched real solver work (cache miss)."""
        return self.endpoint() in ("/schedule", "/optimal") and not self.cache_hit()

    def cache_hit(self) -> bool:
        for sp in self.by_name("cache.probe"):
            if sp.get("attrs", {}).get("hit"):
                return True
        root = self.root
        return bool((root or {}).get("attrs", {}).get("cache_hit"))

    def is_complete(self) -> bool:
        """A scheduled trace carrying the full service→solver chain."""
        names = self.names
        if not all(n in names for n in _REQUIRED_CHAIN):
            return False
        return any(n.startswith("solver:") for n in names)


def group_traces(spans: list[dict]) -> list[TraceView]:
    """Spans grouped per trace, ordered by trace start time."""
    by_id: dict[str, TraceView] = {}
    for sp in spans:
        by_id.setdefault(sp["trace_id"], TraceView(sp["trace_id"])).spans.append(sp)
    traces = list(by_id.values())
    traces.sort(
        key=lambda tv: min((s.get("start", 0.0) for s in tv.spans), default=0.0)
    )
    return traces


def _stats(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0, "mean": None, "p50": None, "p95": None, "max": None}
    return {
        "count": len(samples),
        "mean": round(sum(samples) / len(samples), 4),
        "p50": round(percentile(samples, 50), 4),
        "p95": round(percentile(samples, 95), 4),
        "max": round(max(samples), 4),
    }


def stage_breakdown(spans: list[dict]) -> dict[str, dict]:
    """Aggregate span durations by name → count/mean/p50/p95/max (ms)."""
    by_name: dict[str, list[float]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(float(sp.get("dur_ms", 0.0)))
    return {name: _stats(vals) for name, vals in sorted(by_name.items())}


def critical_path(trace: TraceView) -> list[tuple[dict, float]]:
    """Root-to-leaf chain through the latest-finishing child, with self time.

    Each link's *self time* is its duration minus the duration of the
    child the path descends into — the part of the wait this span alone
    is responsible for.  Spans whose children were lost (crashed worker)
    simply terminate the chain early.
    """
    root = trace.root
    if root is None:
        return []
    path: list[dict] = [root]
    seen = {root["span_id"]}
    current = root
    while True:
        kids = [
            k
            for k in trace.children(current["span_id"])
            if k["span_id"] not in seen
        ]
        if not kids:
            break
        current = max(
            kids, key=lambda s: s.get("start", 0.0) + s.get("dur_ms", 0.0) / 1e3
        )
        seen.add(current["span_id"])
        path.append(current)
    out: list[tuple[dict, float]] = []
    for i, sp in enumerate(path):
        child_dur = float(path[i + 1].get("dur_ms", 0.0)) if i + 1 < len(path) else 0.0
        self_ms = max(float(sp.get("dur_ms", 0.0)) - child_dur, 0.0)
        out.append((sp, round(self_ms, 4)))
    return out


def cache_attribution(traces: list[TraceView]) -> dict:
    """Hit/miss populations of /schedule traces with per-population p50."""
    hits: list[float] = []
    misses: list[float] = []
    for tv in traces:
        if tv.endpoint() != "/schedule":
            continue
        (hits if tv.cache_hit() else misses).append(tv.duration_ms)
    total = len(hits) + len(misses)
    return {
        "schedule_requests": total,
        "hits": len(hits),
        "misses": len(misses),
        "hit_rate": round(len(hits) / total, 4) if total else None,
        "hit_p50_ms": round(percentile(hits, 50), 4) if hits else None,
        "miss_p50_ms": round(percentile(misses, 50), 4) if misses else None,
    }


def trace_summary(spans: list[dict]) -> dict:
    """The full JSON-ready analysis of one span export."""
    traces = group_traces(spans)
    scheduled = [tv for tv in traces if tv.is_scheduled()]
    incomplete = [tv for tv in scheduled if not tv.is_complete()]
    request_durs = [tv.duration_ms for tv in traces if tv.root is not None]

    derived = {}
    for label, span_name in _STAGES:
        samples = [
            float(sp.get("dur_ms", 0.0))
            for tv in scheduled
            for sp in tv.by_name(span_name)
        ]
        derived[label] = _stats(samples)

    slowest = max(traces, key=lambda tv: tv.duration_ms, default=None)
    crit = (
        [
            {
                "name": sp["name"],
                "dur_ms": sp.get("dur_ms", 0.0),
                "self_ms": self_ms,
                "status": sp.get("status", "ok"),
            }
            for sp, self_ms in critical_path(slowest)
        ]
        if slowest is not None
        else []
    )

    return {
        "spans": len(spans),
        "traces": len(traces),
        "scheduled_traces": len(scheduled),
        "incomplete_traces": len(incomplete),
        "incomplete_trace_ids": [tv.trace_id for tv in incomplete[:10]],
        "request_ms": _stats(request_durs),
        "stages": derived,
        "by_span": stage_breakdown(spans),
        "cache": cache_attribution(traces),
        "slowest_trace": {
            "trace_id": slowest.trace_id if slowest else None,
            "dur_ms": slowest.duration_ms if slowest else None,
            "critical_path": crit,
        },
    }


def _stats_row(label: str, st: dict) -> str:
    def f(v):
        return f"{v:9.3f}" if isinstance(v, (int, float)) else f"{'-':>9}"

    return (
        f"  {label:<18s} {st['count']:>6d} {f(st['mean'])} {f(st['p50'])} "
        f"{f(st['p95'])} {f(st['max'])}"
    )


def format_trace_report(spans: list[dict]) -> str:
    """Human-readable ``repro trace`` output."""
    s = trace_summary(spans)
    lines = [
        f"spans: {s['spans']}  traces: {s['traces']}  "
        f"scheduled: {s['scheduled_traces']}  "
        f"incomplete: {s['incomplete_traces']}",
    ]
    if s["incomplete_traces"]:
        lines.append(
            "  incomplete trace ids: " + ", ".join(s["incomplete_trace_ids"])
        )

    lines.append("")
    lines.append("per-stage latency (scheduled requests, ms):")
    lines.append(
        f"  {'stage':<18s} {'count':>6s} {'mean':>9s} {'p50':>9s} "
        f"{'p95':>9s} {'max':>9s}"
    )
    lines.append(_stats_row("request (all)", s["request_ms"]))
    for label, st in s["stages"].items():
        lines.append(_stats_row(label, st))

    lines.append("")
    lines.append("per-span breakdown (all traces, ms):")
    lines.append(
        f"  {'span':<18s} {'count':>6s} {'mean':>9s} {'p50':>9s} "
        f"{'p95':>9s} {'max':>9s}"
    )
    for name, st in s["by_span"].items():
        lines.append(_stats_row(name, st))

    cache = s["cache"]
    lines.append("")
    lines.append(
        f"cache attribution: {cache['hits']}/{cache['schedule_requests']} "
        f"schedule requests served from cache"
        + (
            f" (hit rate {cache['hit_rate']:.1%}, "
            f"hit p50 {cache['hit_p50_ms']} ms vs miss p50 "
            f"{cache['miss_p50_ms']} ms)"
            if cache["hit_rate"] is not None
            else ""
        )
    )

    slow = s["slowest_trace"]
    if slow["trace_id"] is not None:
        lines.append("")
        lines.append(
            f"critical path of slowest trace "
            f"({slow['trace_id'][:8]}…, {slow['dur_ms']:.3f} ms):"
        )
        for link in slow["critical_path"]:
            flag = "" if link["status"] == "ok" else f"  [{link['status']}]"
            lines.append(
                f"  {link['name']:<24s} {link['dur_ms']:9.3f} ms "
                f"(self {link['self_ms']:.3f} ms){flag}"
            )
    return "\n".join(lines)
