"""Minimal discrete-event simulation engine.

A classic event-heap kernel: events are ``(time, priority, seq, payload)``
tuples ordered by time, then priority, then insertion order (the sequence
number makes ordering total and deterministic, which the reproducibility of
every experiment in this repository depends on).

Used by the schedule executor (replay of precomputed segments) and by the
online EDF baselines (releases/completions drive scheduling decisions).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

__all__ = ["Event", "EventQueue", "SimulationClock"]


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence.

    ``priority`` breaks ties at equal times (lower runs first) — e.g.
    completions before releases so a freed core is visible to the dispatcher
    within the same instant.
    """

    time: float
    priority: int
    seq: int
    kind: str
    payload: Any = None


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None, priority: int = 0) -> Event:
        """Schedule an event; returns the created record."""
        seq = next(self._counter)
        ev = Event(time=time, priority=priority, seq=seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> float | None:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimulationClock:
    """Monotone simulation clock with guard against time travel."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def advance_to(self, t: float, tol: float = 1e-9) -> None:
        """Move the clock forward to ``t`` (small backward jitter tolerated)."""
        if t < self._now - tol:
            raise ValueError(f"clock cannot move backwards: {self._now} -> {t}")
        self._now = max(self._now, t)
