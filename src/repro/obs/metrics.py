"""Unified metrics core: counters, gauges, latency histograms.

A deliberately small metrics core in the Prometheus spirit:
:class:`Counter` and :class:`Gauge` are plain numbers, and
:class:`Histogram` keeps a bounded ring of recent samples plus lifetime
count/sum, from which ``p50/p95/p99`` are computed on demand.  Everything
lives in one :class:`MetricsRegistry`, renderable either as plain JSON
(:meth:`MetricsRegistry.snapshot`) or in Prometheus text exposition
format (:func:`repro.obs.prom.render_prometheus`).

Instrument names follow a colon convention the Prometheus renderer
understands: ``base[:path[:status]]`` — e.g. ``latency_ms:/schedule`` or
``responses:/schedule:200`` — so one base name fans out into labeled
series without a label API.

Single-threaded by design: all mutation happens on the event loop (or in
one worker), so no locks are needed.  Processes do not share registries;
worker-side observations travel home on result payloads, not through
shared memory.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method, implemented over plain
    floats so the metrics path stays stdlib-only and allocation-light.
    """
    data = sorted(samples)
    if not data:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Counter:
    """A monotonically-increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only go up")
        self.value += by


class Gauge:
    """A value that can go up and down (queue depth, in-flight requests)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, by: float = 1.0) -> None:
        self.value += by

    def dec(self, by: float = 1.0) -> None:
        self.value -= by


class Histogram:
    """Latency distribution: lifetime count/sum/min/max + a recent-sample ring.

    Percentiles are computed over the last ``min(count, window)``
    observations — a sliding view that tracks current behavior rather than
    the full history, which is the useful quantity for a long-running
    daemon.

    Ring semantics (pinned by the wraparound regression tests): the ring
    fills append-only until it holds ``window`` samples; from then on each
    observation overwrites the *oldest* ring slot, so after wraparound a
    reported p99 is exactly the p99 of the most recent ``window``
    observations and nothing older.  This silently changes what the
    percentile *means* the moment ``count`` exceeds ``window`` — from
    "lifetime p99" to "windowed p99" — so :meth:`snapshot` reports
    ``window_len`` (samples currently in the ring) and ``window`` (the
    configured capacity) alongside the lifetime ``count``/``sum``, letting
    consumers tell which regime a percentile was computed in.  Every
    rendering of a histogram — the JSON snapshot *and* each Prometheus
    exposition family — carries ``window_len`` for the same reason.
    """

    __slots__ = ("window", "_ring", "_next", "count", "total", "min", "max")

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._ring: list[float] = []
        self._next = 0  # ring write position once the ring is full
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self._ring) < self.window:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self.window

    def percentile(self, q: float) -> float:
        return percentile(self._ring, q)

    @property
    def window_len(self) -> int:
        """Samples currently in the ring: ``min(count, window)``."""
        return len(self._ring)

    def snapshot(self) -> dict:
        """Summary dict with lifetime stats and p50/p95/p99 of the window."""
        mean = self.total / self.count if self.count else math.nan

        def _clean(x: float) -> float | None:
            return None if math.isnan(x) or math.isinf(x) else round(x, 6)

        return {
            "count": self.count,
            "window": self.window,
            "window_len": self.window_len,
            "sum": _clean(self.total),
            "mean": _clean(mean),
            "min": _clean(self.min),
            "max": _clean(self.max),
            "p50": _clean(self.percentile(50)),
            "p95": _clean(self.percentile(95)),
            "p99": _clean(self.percentile(99)),
        }


class MetricsRegistry:
    """Name → instrument mapping with lazy creation and one snapshot call."""

    def __init__(self, histogram_window: int = 2048) -> None:
        self._histogram_window = histogram_window
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(self._histogram_window)
        return self._histograms[name]

    def observe_stages(self, spans) -> None:
        """Feed one request's finished spans into ``stage_ms:<name>``.

        Colons in span names (``solver:subinterval-der``) become dots so
        the Prometheus renderer's label convention stays unambiguous; this
        puts the per-stage latency breakdown on ``GET /metrics`` even when
        no trace file is configured.
        """
        for sp in spans:
            name = sp["name"].replace(":", ".")
            self.histogram(f"stage_ms:{name}").observe(float(sp.get("dur_ms", 0.0)))

    def snapshot(self) -> dict:
        """The full registry as plain JSON-ready dicts."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }

    def summary_line(self) -> str:
        """One log line: the load-bearing numbers for a periodic heartbeat."""
        snap = self.snapshot()
        counters = snap["counters"]
        parts = []
        total = sum(
            v for k, v in counters.items() if k.startswith("requests_total")
        )
        parts.append(f"requests={total}")
        shed = counters.get("shed_total", 0)
        parts.append(f"shed={shed}")
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        if hits + misses:
            parts.append(f"cache_hit_rate={hits / (hits + misses):.3f}")
        lat = snap["histograms"].get("latency_ms:/schedule")
        if lat and lat["count"]:
            parts.append(f"schedule_p95_ms={lat['p95']}")
        for k, v in snap["gauges"].items():
            parts.append(f"{k}={v:g}")
        return " ".join(parts)
