"""``repro.obs`` — tracing, unified metrics, and profiling for the stack.

One stdlib-only observability layer the whole pipeline reports into:

* :mod:`repro.obs.context` — the :class:`Span` API with trace-ID
  propagation across the service's process-pool boundary (spans produced
  inside a worker ride the result dict home and are stitched back onto
  the request's trace, surviving worker crashes and retries);
* :mod:`repro.obs.metrics` — the process-wide metrics core (counters,
  gauges, ring-buffer histograms) the service records into;
* :mod:`repro.obs.prom` — Prometheus text exposition rendering of a
  metrics snapshot (served by ``GET /metrics`` under content
  negotiation);
* :mod:`repro.obs.profile` — the ``repro solve --profile`` report
  (kernel diagnostics, centering path, span timing tree);
* :mod:`repro.obs.report` — the ``repro trace`` analyzer: per-stage
  latency breakdown, critical path, and cache-hit attribution over a
  JSONL span export;
* :mod:`repro.obs.smoke` — the ``make obs-smoke`` end-to-end check,
  including the tracing-overhead guard.

Everything here is dependency-free and cheap enough to leave on by
default: span creation is a couple of dict/dataclass allocations,
:func:`traced` skips even those when nobody is listening, and a span that
no capture buffer or exporter is listening for is dropped at finish time.
"""

from .context import (
    JsonlExporter,
    Span,
    activate,
    active,
    add_event,
    capture,
    current_span,
    emit,
    inject,
    manual_span,
    new_trace_id,
    span,
    traced,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile

__all__ = [
    "Span",
    "span",
    "traced",
    "active",
    "capture",
    "activate",
    "inject",
    "emit",
    "add_event",
    "current_span",
    "manual_span",
    "new_trace_id",
    "JsonlExporter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]
