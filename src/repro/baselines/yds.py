"""YDS (Yao–Demers–Shenker) optimal uniprocessor DVFS scheduling.

The paper's §I-A/§I-B related-work baseline: for a single processor with
``p(f) = f^α`` (no static power), YDS minimizes energy by repeatedly finding
the *critical interval* — the ``[t₁, t₂]`` maximizing the intensity
``C(t₁,t₂)/(t₂−t₁)`` over work that must fully live inside it — running it
at exactly that speed with EDF, and deleting it from the timeline.

Our implementation works in original (uncompressed) time coordinates by
maintaining the set of already-frozen critical intervals and measuring each
candidate interval's *remaining* capacity; this keeps the emitted segments in
real time without coordinate back-mapping.  It reproduces the paper's Fig. 2
example (speed 1 on [4, 8], speed 0.75 elsewhere) and is verified optimal
against the convex program with ``m = 1, p₀ = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.schedule import Schedule, Segment
from ..core.task import TaskSet
from ..power.models import PolynomialPower

__all__ = ["CriticalInterval", "YdsResult", "yds_schedule"]

_EPS = 1e-12


@dataclass(frozen=True)
class CriticalInterval:
    """One iteration's critical interval and its chosen speed."""

    start: float
    end: float
    speed: float
    task_ids: tuple[int, ...]


class _FreeTimeline:
    """Tracks which parts of the horizon are still unfrozen."""

    def __init__(self) -> None:
        self._frozen: list[tuple[float, float]] = []  # disjoint, sorted

    def freeze(self, a: float, b: float) -> None:
        """Mark ``[a, b]`` as consumed (merging with existing intervals)."""
        merged = []
        for s, e in self._frozen:
            if e < a - _EPS or s > b + _EPS:
                merged.append((s, e))
            else:
                a, b = min(a, s), max(b, e)
        merged.append((a, b))
        merged.sort()
        self._frozen = merged

    def free_measure(self, a: float, b: float) -> float:
        """Length of ``[a, b]`` not yet frozen."""
        total = b - a
        for s, e in self._frozen:
            lo, hi = max(s, a), min(e, b)
            if hi > lo:
                total -= hi - lo
        return max(total, 0.0)

    def free_chunks(self, a: float, b: float) -> list[tuple[float, float]]:
        """The unfrozen sub-chunks of ``[a, b]``, in order."""
        chunks = []
        cursor = a
        for s, e in self._frozen:
            if e <= a + _EPS or s >= b - _EPS:
                continue
            if s > cursor + _EPS:
                chunks.append((cursor, min(s, b)))
            cursor = max(cursor, e)
        if cursor < b - _EPS:
            chunks.append((cursor, b))
        return chunks


def _edf_in_chunks(
    task_ids: list[int],
    tasks: TaskSet,
    chunks: list[tuple[float, float]],
    speed: float,
) -> list[Segment]:
    """EDF at constant ``speed`` over a union of free chunks.

    Invariant (from YDS): the chunk capacity equals the total work divided by
    the speed, and within the critical interval every contained task is
    schedulable by EDF at that speed.
    """
    remaining = {tid: float(tasks.works[tid]) for tid in task_ids}
    segments: list[Segment] = []
    for (a, b) in chunks:
        t = a
        while t < b - _EPS:
            ready = [
                tid
                for tid in task_ids
                if remaining[tid] > _EPS and tasks.releases[tid] <= t + _EPS
            ]
            if not ready:
                # jump to the next release inside this chunk
                future = [
                    tasks.releases[tid]
                    for tid in task_ids
                    if remaining[tid] > _EPS and tasks.releases[tid] > t + _EPS
                ]
                nxt = min((r for r in future if r < b - _EPS), default=None)
                if nxt is None:
                    break
                t = float(nxt)
                continue
            tid = min(ready, key=lambda i: (tasks.deadlines[i], i))
            # run until completion, chunk end, or next release (preemption point)
            finish = t + remaining[tid] / speed
            releases = [
                float(tasks.releases[i])
                for i in task_ids
                if remaining[i] > _EPS and t + _EPS < tasks.releases[i] < finish
            ]
            end = min([finish, b] + releases)
            if end <= t + _EPS:
                break
            segments.append(Segment(tid, 0, t, end, speed))
            remaining[tid] -= speed * (end - t)
            t = end
    leftovers = {tid: w for tid, w in remaining.items() if w > 1e-7}
    if leftovers:
        raise AssertionError(f"YDS-EDF left work unscheduled: {leftovers}")
    return segments


@dataclass(frozen=True)
class YdsResult:
    """YDS output: the schedule plus the per-iteration critical intervals."""

    schedule: Schedule
    critical_intervals: list[CriticalInterval]

    @property
    def energy(self) -> float:
        """Total energy of the YDS schedule."""
        return self.schedule.total_energy()


def yds_schedule(tasks: TaskSet, power: PolynomialPower | None = None) -> YdsResult:
    """Run YDS on a uniprocessor.

    ``power`` defaults to the classic ``p(f) = f³``; YDS is speed-optimal for
    any convex ``p`` with ``p(0) = 0``, so the *segments* do not depend on
    the model — only the reported energy does.
    """
    if power is None:
        power = PolynomialPower(alpha=3.0, static=0.0)
    timeline = _FreeTimeline()
    pending = set(range(len(tasks)))
    criticals: list[CriticalInterval] = []
    all_segments: list[Segment] = []

    while pending:
        starts = sorted({float(tasks.releases[i]) for i in pending})
        ends = sorted({float(tasks.deadlines[i]) for i in pending})
        best: tuple[float, float, float, list[int]] | None = None
        for a in starts:
            for b in ends:
                if b <= a + _EPS:
                    continue
                inside = [
                    i
                    for i in pending
                    if tasks.releases[i] >= a - _EPS and tasks.deadlines[i] <= b + _EPS
                ]
                if not inside:
                    continue
                cap = timeline.free_measure(a, b)
                if cap <= _EPS:
                    continue
                intensity = float(sum(tasks.works[i] for i in inside)) / cap
                if best is None or intensity > best[0] + _EPS:
                    best = (intensity, a, b, inside)
        if best is None:
            raise AssertionError("YDS found no schedulable interval (bug)")
        speed, a, b, inside = best
        chunks = timeline.free_chunks(a, b)
        all_segments.extend(_edf_in_chunks(inside, tasks, chunks, speed))
        criticals.append(
            CriticalInterval(start=a, end=b, speed=speed, task_ids=tuple(sorted(inside)))
        )
        timeline.freeze(a, b)
        pending.difference_update(inside)

    schedule = Schedule(tasks, 1, power, all_segments)
    return YdsResult(schedule=schedule, critical_intervals=criticals)
