"""Prometheus text exposition rendering of a metrics snapshot.

Turns :meth:`repro.obs.metrics.MetricsRegistry.snapshot` output into the
text format every Prometheus-compatible scraper speaks (exposition format
version 0.0.4).  Stdlib-only — no client library.

Instrument names use the repo's colon convention and are mapped onto
metric families with labels:

====================================  =========================================
registry name                         exposition
====================================  =========================================
``requests_total:/schedule``          ``repro_requests_total{path="/schedule"}``
``responses:/schedule:200``           ``repro_responses_total{path="/schedule",status="200"}``
``shed_total``                        ``repro_shed_total``
``cache_hits``                        ``repro_cache_hits_total``
``in_progress`` (gauge)               ``repro_in_progress``
``latency_ms:/schedule`` (histogram)  ``repro_latency_ms{path="/schedule",quantile="0.5"}`` …
====================================  =========================================

The rule: split on ``:``; the first token is the family base name, a
second token becomes the ``path`` label (or ``key`` when it doesn't look
like a path), a third becomes ``status`` (or ``tag``).  Counter families
get a ``_total`` suffix when the base doesn't already end in one, per
Prometheus naming conventions.  Ring-buffer histograms are rendered as
*summaries* (quantile series + ``_sum``/``_count``) — the ring holds raw
samples, not fixed buckets — plus one ``<family>_window_len`` gauge per
series so scrapers can tell windowed from lifetime quantiles (the same
contract the JSON snapshot makes).
"""

from __future__ import annotations

import math
import re

__all__ = [
    "render_prometheus",
    "render_prometheus_multi",
    "parse_prometheus",
    "CONTENT_TYPE",
    "prom_name",
]

#: the Content-Type Prometheus scrapers expect for exposition format 0.0.4
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_QUANTILES = ((50, "0.5"), (95, "0.95"), (99, "0.99"))


def prom_name(base: str, namespace: str = "repro") -> str:
    """Sanitized ``namespace_base`` metric family name."""
    clean = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in base
    )
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return f"{namespace}_{clean}"


def _split_labels(name: str) -> tuple[str, list[tuple[str, str]]]:
    """Registry name → (family base, label pairs) per the colon convention."""
    parts = name.split(":")
    base = parts[0]
    labels: list[tuple[str, str]] = []
    if len(parts) >= 2 and parts[1]:
        labels.append(("path" if parts[1].startswith("/") else "key", parts[1]))
    if len(parts) >= 3 and parts[2]:
        labels.append(("status" if parts[2].isdigit() else "tag", parts[2]))
    return base, labels


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: list[tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    f = float(value)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class _FamilyWriter:
    """Accumulates series per family so TYPE/HELP headers print once."""

    def __init__(self, namespace: str):
        self.namespace = namespace
        self._families: dict[str, tuple[str, str, list[str]]] = {}

    def add(
        self,
        base: str,
        kind: str,
        help_text: str,
        labels: list[tuple[str, str]],
        value,
        suffix: str = "",
    ) -> None:
        family = prom_name(base, self.namespace)
        _, _, lines = self._families.setdefault(family, (kind, help_text, []))
        lines.append(f"{family}{suffix}{_label_str(labels)} {_fmt(value)}")

    def render(self) -> str:
        out: list[str] = []
        for family in sorted(self._families):
            kind, help_text, lines = self._families[family]
            out.append(f"# HELP {family} {help_text}")
            out.append(f"# TYPE {family} {kind}")
            out.extend(lines)
        return "\n".join(out) + "\n"


def _add_snapshot(
    w: _FamilyWriter,
    snapshot: dict,
    extra_gauges: dict | None,
    const: list[tuple[str, str]],
) -> None:
    """Fold one registry snapshot into a family writer.

    ``const`` label pairs are prefixed onto every series — the hook the
    sharded router uses to stamp ``shard="<i>"`` onto each shard's
    metrics while all shards share one TYPE/HELP header per family.
    """
    for name, value in snapshot.get("counters", {}).items():
        base, labels = _split_labels(name)
        if not base.endswith("_total"):
            base += "_total"
        w.add(base, "counter", f"repro counter {name!r}", const + labels, value)

    for name, value in snapshot.get("gauges", {}).items():
        base, labels = _split_labels(name)
        w.add(base, "gauge", f"repro gauge {name!r}", const + labels, value)
    for name, value in (extra_gauges or {}).items():
        base, labels = _split_labels(name)
        w.add(base, "gauge", f"repro gauge {name!r}", const + labels, value)

    for name, snap in snapshot.get("histograms", {}).items():
        base, labels = _split_labels(name)
        labels = const + labels
        help_text = f"repro histogram {name!r} (windowed quantiles)"
        for q, qlabel in _QUANTILES:
            w.add(
                base,
                "summary",
                help_text,
                labels + [("quantile", qlabel)],
                snap.get(f"p{q}"),
            )
        w.add(base, "summary", help_text, labels, snap.get("sum") or 0.0, "_sum")
        w.add(base, "summary", help_text, labels, snap.get("count", 0), "_count")
        # every histogram family exposes its ring fill so consumers can
        # tell a windowed quantile from a lifetime one
        w.add(
            base + "_window_len",
            "gauge",
            f"samples in the quantile window of {name!r}",
            labels,
            snap.get("window_len", 0),
        )


def render_prometheus(
    snapshot: dict,
    *,
    namespace: str = "repro",
    extra_gauges: dict | None = None,
    const_labels: dict | None = None,
) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    ``extra_gauges`` lets the caller fold in point-in-time numbers that
    live outside the registry (uptime, cache entries, batcher backlog)
    without mutating it; keys follow the same colon convention.
    ``const_labels`` are stamped onto every rendered series.
    """
    w = _FamilyWriter(namespace)
    _add_snapshot(w, snapshot, extra_gauges, list((const_labels or {}).items()))
    return w.render()


def render_prometheus_multi(
    sections: list[dict],
    *,
    namespace: str = "repro",
) -> str:
    """Merge several registry snapshots into one valid exposition page.

    Each section is ``{"snapshot": ..., "extra_gauges": ...?, "labels":
    ...?}``; all sections render through one family writer so a family
    appearing in multiple sections (every shard has ``requests_total``)
    prints its ``# HELP``/``# TYPE`` header exactly once — concatenating
    per-shard pages would repeat headers, which scrapers reject.
    """
    w = _FamilyWriter(namespace)
    for section in sections:
        _add_snapshot(
            w,
            section.get("snapshot") or {},
            section.get("extra_gauges"),
            list((section.get("labels") or {}).items()),
        )
    return w.render()


_SAMPLE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r'(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*",?)*\})?'  # labels
    r" (\S+)"  # value
)
#: sample-name suffixes that belong to a summary or histogram family
_SUFFIXES = ("_sum", "_count", "_bucket")


def parse_prometheus(text: str) -> dict[str, dict]:
    """Strictly parse text exposition: family → ``{"type", "samples"}``.

    ``samples`` maps each series (name plus label block, as written) to
    its float value.  Raises ``ValueError`` on a value that is not a
    float, a sample before its family's ``# TYPE`` line, a second ``#
    HELP`` or ``# TYPE`` line for one family, and a malformed or
    unterminated label block.
    """
    families: dict[str, dict] = {}
    headers: set[tuple[str, str]] = set()
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith(("# HELP ", "# TYPE ")):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ValueError(f"line {n}: truncated header {line!r}")
            _, keyword, family, rest = parts
            if (keyword, family) in headers:
                raise ValueError(f"line {n}: second {keyword} line for {family}")
            headers.add((keyword, family))
            if keyword == "TYPE":
                families[family] = {"type": rest, "samples": {}}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.fullmatch(line)
        if match is None:
            raise ValueError(f"line {n}: malformed sample {line!r}")
        name, labels, value = match.groups()
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"line {n}: non-float value {value!r}") from None
        family = name
        if family not in families:
            family = next((name[: -len(x)] for x in _SUFFIXES if name.endswith(x)), "")
            if families.get(family, {}).get("type") not in ("summary", "histogram"):
                raise ValueError(f"line {n}: sample {name} before its TYPE line")
        families[family]["samples"][name + (labels or "")] = number
    return families
