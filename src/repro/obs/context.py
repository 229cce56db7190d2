"""Trace context: spans, propagation carriers, capture buffers, JSONL export.

The model is a tiny subset of OpenTelemetry's, shaped for one process
tree and a process-pool boundary:

* a **span** is a named, timed operation with a ``trace_id`` shared by
  every span of one request, a unique ``span_id``, and a ``parent_id``
  linking it into the request's tree;
* the **current span** lives in a :mod:`contextvars` variable, so nested
  ``with span(...)`` blocks build the tree without any plumbing — and
  ``asyncio`` tasks each see their own current span;
* finished spans are appended to the innermost **capture buffer**
  (``with capture() as spans:``).  No buffer → the span is dropped, which
  is what makes tracing cheap enough to leave on: library code opens its
  optional spans with :func:`traced`, which builds nothing unless someone
  is collecting;
* crossing a process boundary, :func:`inject` shrinks the current
  context to a plain-dict **carrier** (picklable, JSON-able) that rides
  the job dict; the worker re-enters the trace with :func:`activate`,
  collects its spans in its own capture buffer, and returns them as
  dicts on the result (the dispatcher stitches them back with
  :func:`emit`).  A worker that dies takes its buffered spans with it —
  the dispatcher marks the lost attempt with a :func:`manual_span`
  instead, so crashed and retried attempts stay visible on the trace.

Span dicts (the serialized form) have the stable keys ``trace_id``,
``span_id``, ``parent_id``, ``name``, ``start`` (epoch seconds),
``dur_ms``, ``status`` and ``attrs``; ``attrs`` may carry an ``events``
list of ``{"name": …, "t_ms": offset, …}`` point-in-time records (the
interior-point solver mirrors each centering step as one ``ip.center``
event).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "Span",
    "span",
    "traced",
    "capture",
    "activate",
    "inject",
    "emit",
    "add_event",
    "current_span",
    "manual_span",
    "new_trace_id",
    "trace_sampled",
    "JsonlExporter",
]

#: innermost capture buffer (list of span dicts), or None when nobody listens
_BUFFER: ContextVar[list | None] = ContextVar("repro_obs_buffer", default=None)
#: the active span (or remote parent handle) new spans attach under
_CURRENT: ContextVar["Span | _RemoteParent | None"] = ContextVar(
    "repro_obs_current", default=None
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass
class Span:
    """One in-flight traced operation; finished spans become plain dicts."""

    name: str
    trace_id: str
    span_id: str = field(default_factory=_new_span_id)
    parent_id: str | None = None
    start: float = field(default_factory=time.time)
    attrs: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    _t0: float = field(default_factory=time.perf_counter, repr=False)
    _done: bool = field(default=False, repr=False)

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-representable values only)."""
        self.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event at the current offset into the span."""
        events = self.attrs.setdefault("events", [])
        events.append(
            {
                "name": name,
                "t_ms": round((time.perf_counter() - self._t0) * 1e3, 4),
                **attrs,
            }
        )

    def to_dict(self, dur_ms: float) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "dur_ms": round(dur_ms, 4),
            "status": self.status,
            "attrs": self.attrs,
        }

    def finish(self, status: str | None = None) -> dict | None:
        """Close the span and hand it to the active capture buffer.

        Returns the serialized span dict (or ``None`` on double-finish).
        Idempotent: only the first call emits.
        """
        if self._done:
            return None
        self._done = True
        if status is not None:
            self.status = status
        data = self.to_dict((time.perf_counter() - self._t0) * 1e3)
        emit(data)
        return data


@dataclass(frozen=True)
class _RemoteParent:
    """A parent that lives in another process: ids only, never finished."""

    trace_id: str
    span_id: str


def current_span() -> Span | None:
    """The innermost *local* span, or None (remote parents don't count)."""
    cur = _CURRENT.get()
    return cur if isinstance(cur, Span) else None


def active() -> bool:
    """True when spans created now would go somewhere (parent or buffer).

    Two contextvar reads, no allocation — the test :func:`traced` makes
    before building a span.
    """
    return _CURRENT.get() is not None or _BUFFER.get() is not None


def add_event(name: str, **attrs: Any) -> bool:
    """Attach an event to the current local span; False when none is active.

    This is the hot-path hook deep library code uses (e.g. one event per
    interior-point centering step): a single contextvar read when tracing
    is off.
    """
    cur = _CURRENT.get()
    if not isinstance(cur, Span):
        return False
    cur.event(name, **attrs)
    return True


@contextlib.contextmanager
def span(name: str, *, trace_id: str | None = None, **attrs: Any) -> Iterator[Span]:
    """Open a child span of the current context (or a fresh root trace).

    ``trace_id`` pins the trace id of a *root* span (client-supplied
    correlation ids); it is ignored when a parent context exists.  The
    span finishes on exit — with ``status="error"`` and the exception
    type recorded when the body raises.
    """
    parent = _CURRENT.get()
    if parent is None:
        sp = Span(
            name=name, trace_id=trace_id or new_trace_id(), attrs=dict(attrs)
        )
    else:
        sp = Span(
            name=name,
            trace_id=parent.trace_id,
            parent_id=parent.span_id,
            attrs=dict(attrs),
        )
    token = _CURRENT.set(sp)
    try:
        yield sp
    except BaseException as exc:
        sp.set("exception", type(exc).__name__)
        sp.finish(status="error")
        raise
    finally:
        _CURRENT.reset(token)
        sp.finish()


#: what :func:`traced` hands untraced callers (stateless, so shareable)
_NOT_TRACED = contextlib.nullcontext()


def traced(
    name: str, **attrs: Any
) -> contextlib.AbstractContextManager[Span | None]:
    """:func:`span` when someone is listening, else a no-op yielding None.

    The one guard library code wraps optional spans in: untraced callers
    pay :func:`active`'s two contextvar reads and construct no span.
    Callers that set attributes check the yielded span for ``None``.
    """
    if not active():
        return _NOT_TRACED
    return span(name, **attrs)


@contextlib.contextmanager
def capture() -> Iterator[list[dict]]:
    """Collect every span finished in this context into the yielded list."""
    buf: list[dict] = []
    token = _BUFFER.set(buf)
    try:
        yield buf
    finally:
        _BUFFER.reset(token)


def emit(span_dict: dict) -> bool:
    """Append a finished span dict to the capture buffer, if one is active."""
    buf = _BUFFER.get()
    if buf is None:
        return False
    buf.append(span_dict)
    return True


def inject() -> dict | None:
    """The current context as a picklable carrier, or None when untraced.

    The carrier also records the wall-clock time it was created
    (``enqueued_at``), which is what lets the worker reconstruct the
    queue/batch wait as a ``batch.queue`` span without the batcher
    knowing about tracing at all.
    """
    cur = _CURRENT.get()
    if cur is None:
        return None
    return {
        "trace_id": cur.trace_id,
        "parent": cur.span_id,
        "enqueued_at": time.time(),
    }


@contextlib.contextmanager
def activate(carrier: dict | None) -> Iterator[None]:
    """Re-enter a trace from a carrier (no-op when ``carrier`` is None)."""
    if not carrier:
        yield
        return
    token = _CURRENT.set(
        _RemoteParent(
            trace_id=str(carrier["trace_id"]),
            span_id=str(carrier["parent"]),
        )
    )
    try:
        yield
    finally:
        _CURRENT.reset(token)


def manual_span(
    name: str,
    *,
    trace_id: str,
    parent_id: str | None = None,
    start: float,
    end: float | None = None,
    status: str = "ok",
    **attrs: Any,
) -> dict:
    """Build a finished span dict from explicit timestamps (epoch seconds).

    For spans whose interval is known only after the fact: queue waits
    reconstructed from a carrier's ``enqueued_at``, or the dispatcher
    marking an attempt whose worker died before it could report.  The
    dict is *returned*, not emitted — callers decide where it goes.
    """
    end = time.time() if end is None else end
    return {
        "trace_id": trace_id,
        "span_id": _new_span_id(),
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "dur_ms": round(max(end - start, 0.0) * 1e3, 4),
        "status": status,
        "attrs": dict(attrs),
    }


def trace_sampled(trace_id: str, sample: float) -> bool:
    """Deterministic head sampling: one verdict per trace, same everywhere.

    Hashing the trace id (not flipping a coin per span) keeps traces
    whole — either every span of a request is exported or none is.
    """
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    try:
        bucket = int(trace_id[:8], 16) / 0xFFFFFFFF
    except ValueError:
        return True  # unhashable foreign id: keep it
    return bucket < sample


class JsonlExporter:
    """Append-mode JSONL span sink with deterministic trace sampling.

    One span per line, written through a buffered text handle; callers
    hand it whole capture buffers (:meth:`export`).  Not thread-safe by
    design — the service calls it from the event loop only.
    """

    def __init__(self, path, sample: float = 1.0):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self.path = str(path)
        self.sample = sample
        self.exported = 0
        self.dropped = 0
        self._fh = open(self.path, "a", encoding="utf-8")

    def export(self, spans: Iterable[dict]) -> int:
        """Write the sampled subset of ``spans``; returns how many landed."""
        n = 0
        for sp in spans:
            if not trace_sampled(sp.get("trace_id", ""), self.sample):
                self.dropped += 1
                continue
            self._fh.write(json.dumps(sp, separators=(",", ":")) + "\n")
            n += 1
        self.exported += n
        if n:
            self._fh.flush()
        return n

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
