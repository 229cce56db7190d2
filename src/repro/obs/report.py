"""``repro trace`` — analyze a JSONL span export into a latency report.

Consumes the file ``repro serve --trace out.jsonl`` writes (one span per
line, the dict shape of :mod:`repro.obs.context`) and answers the three
questions a latency investigation starts with:

* **where does the time go?** — per-stage breakdown: every span name
  aggregated into count / mean / p50 / p95 / max milliseconds, plus the
  derived queue → solve → pack → validate stage view of scheduled
  requests;
* **what's the critical path?** — for the slowest traces, the spans the
  request waited on, from the root down to the last thing that finished,
  with self-time attribution per link;
* **did the cache help?** — hit/miss attribution: how many requests were
  answered from the plan cache, and the p50 latency of each population.

Traces whose scheduled request is missing part of its span tree (a
worker died before reporting and no retry landed) are counted as
*incomplete* rather than silently skewing the stage statistics.
"""

from __future__ import annotations

import json
import math
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
        """True when this trace dispatched real solver work: a cache miss
        that did not wait on another request's solve of the same plan."""
        return (
            self.endpoint() in ("/schedule", "/optimal")
            and not self.cache_hit()
            and not self._probed("coalesced")
        )

    def cache_hit(self) -> bool:
        root = self.root
        return self._probed("hit") or bool(
            (root or {}).get("attrs", {}).get("cache_hit")
        )

    def _probed(self, attr: str) -> bool:
        """True when a ``cache.probe`` span of this trace set ``attr``."""
        probes = self.by_name("cache.probe")
        return any(sp.get("attrs", {}).get(attr) for sp in probes)

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


#: a child that ends within this many ulps of its next sibling's start
#: counts as sequential with it (a span's end is ``start + dur_ms``, one
#: rounding away from the instant the next span started)
_TIE_ULPS = 4


def _end(sp: dict) -> float:
    return sp.get("start", 0.0) + sp.get("dur_ms", 0.0) / 1e3


def _sequential_chain(kids: list[dict]) -> list[dict]:
    """The children on the path, in start order.

    The latest finisher, then — walking back — the latest-finishing child
    that ended before the on-path sibling after it began.
    """
    chain: list[dict] = []
    while kids:
        last = max(kids, key=_end)
        chain.append(last)
        begin = last.get("start", 0.0)
        limit = begin + _TIE_ULPS * math.ulp(begin)
        kids = [k for k in kids if k is not last and _end(k) <= limit]
    return chain[::-1]


def _self_ms(sp: dict, kids: list[dict]) -> float:
    """``sp``'s duration minus the union of its children's intervals."""
    start, dur = sp.get("start", 0.0), float(sp.get("dur_ms", 0.0))
    covered = reach = 0.0  # ms since ``start``, clipped to the span
    for k in kids:  # in start order
        offset = (k.get("start", 0.0) - start) * 1e3
        lo, hi = max(offset, reach), min(offset + k.get("dur_ms", 0.0), dur)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return round(max(dur - covered, 0.0), 4)


def critical_path(trace: TraceView) -> list[tuple[dict, float]]:
    """Root-to-leaf chain of the spans the request waited on, with self time.

    Under each span the path takes the latest-finishing child and every
    child that ended before the next on-path sibling began, in start
    order, and descends into each of them.  A link's *self time* is its
    duration minus the union of its children's intervals — the part of
    the wait this span alone is responsible for.  Spans whose children
    were lost (crashed worker) simply terminate the chain early.
    """
    root = trace.root
    if root is None:
        return []
    out: list[tuple[dict, float]] = []
    seen = {root["span_id"]}
    stack = [root]
    while stack:
        sp = stack.pop()
        kids = trace.children(sp["span_id"])
        out.append((sp, _self_ms(sp, kids)))
        kids = [k for k in kids if k["span_id"] not in seen]
        if kids:
            chain = _sequential_chain(kids)
            seen.update(k["span_id"] for k in chain)
            stack.extend(reversed(chain))
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
