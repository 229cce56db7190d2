"""Concrete schedules: per-core, per-frequency execution segments.

A :class:`Schedule` is the fully-resolved artifact every method in this
library ultimately produces: a set of segments, each saying *task i runs on
core k over [start, end] at frequency f*, held as one column per field and
handed out as :class:`Segment` records on demand.  It is what the
discrete-event simulator replays, what the validator checks, and what the
Gantt renderers draw.

Energy bookkeeping lives here too because for the paper's model it is a pure
function of the segments: an active core at frequency ``f`` for duration
``Δ`` consumes ``p(f)·Δ``; idle cores sleep at zero power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..power.models import PowerModel
from .task import TaskSet

__all__ = ["Segment", "Schedule"]

#: the per-segment columns a :class:`Schedule` holds, in :class:`Segment`
#: field order
_COLUMNS = ("task", "core", "start", "end", "frequency")


@dataclass(frozen=True, slots=True)
class Segment:
    """One contiguous execution of one task on one core.

    Work completed by the segment is ``frequency · (end − start)``.
    """

    task_id: int
    core: int
    start: float
    end: float
    frequency: float

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be nonnegative")
        if self.core < 0:
            raise ValueError("core must be nonnegative")
        if not self.end > self.start:
            raise ValueError(
                f"segment must have positive length, got [{self.start}, {self.end}]"
            )
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    @property
    def duration(self) -> float:
        """Segment length in time units."""
        return self.end - self.start

    @property
    def work(self) -> float:
        """Cycles completed: ``frequency × duration``."""
        return self.frequency * self.duration

    def overlaps(self, other: "Segment") -> bool:
        """True when the two segments overlap in time (open-interval sense)."""
        return self.start < other.end and other.start < self.end

    def shifted(self, dt: float) -> "Segment":
        """Copy moved by ``dt`` in time."""
        return replace(self, start=self.start + dt, end=self.end + dt)


class Schedule(Sequence[Segment]):
    """An immutable collection of segments bound to a task set and platform.

    The segments are held as five columns in schedule order, ``(start,
    core, task)``: :attr:`task` and :attr:`core` (``int64``), :attr:`start`,
    :attr:`end` and :attr:`frequency` (``float64``), all read-only.
    Iterating or indexing yields :class:`Segment` objects built on demand.
    Build one from segments with the constructor, or from columns with
    :meth:`from_columns`; both make the same checks.

    Invariants (enforced by :mod:`repro.sim.validate`, not by construction,
    so partially-built or deliberately-broken schedules can be represented
    for testing): no core executes two segments at once, no task executes on
    two cores at once, every segment lies inside its task's window, and each
    task's total work equals its requirement.
    """

    __slots__ = ("tasks", "n_cores", "power", *_COLUMNS)

    def __init__(
        self,
        tasks: TaskSet,
        n_cores: int,
        power: PowerModel,
        segments: Iterable[Segment],
    ):
        segs = list(segments)
        self._init(
            tasks,
            n_cores,
            power,
            [s.task_id for s in segs],
            [s.core for s in segs],
            [s.start for s in segs],
            [s.end for s in segs],
            [s.frequency for s in segs],
        )

    @classmethod
    def from_columns(
        cls,
        tasks: TaskSet,
        n_cores: int,
        power: PowerModel,
        task,
        core,
        start,
        end,
        frequency,
    ) -> "Schedule":
        """A schedule from per-segment columns, in any order.

        Makes the checks that building each :class:`Segment` and then the
        :class:`Schedule` makes, with the same ``ValueError`` messages, and
        sorts the columns into schedule order.
        """
        self = cls.__new__(cls)
        self._init(tasks, n_cores, power, task, core, start, end, frequency)
        return self

    def _init(self, tasks, n_cores, power, task, core, start, end, frequency):
        cols = (
            np.asarray(task, dtype=np.int64),
            np.asarray(core, dtype=np.int64),
            np.asarray(start, dtype=np.float64),
            np.asarray(end, dtype=np.float64),
            np.asarray(frequency, dtype=np.float64),
        )
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("segment columns must be 1-D and of equal length")
        task, core, start, end, frequency = cols
        # Segment.__post_init__'s checks: the first bad segment, in input order
        checks = (
            (task < 0, "task_id must be nonnegative"),
            (core < 0, "core must be nonnegative"),
            (~(end > start), "segment must have positive length, got [{}, {}]"),
            (frequency <= 0, "frequency must be positive"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            message = next(message for mask, message in checks if mask[i])
            raise ValueError(message.format(start[i].item(), end[i].item()))
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        # stable, so ties keep input order as Python's sorted() does
        order = np.lexsort((task, core, start))
        cols = tuple(c[order] for c in cols)
        task, core = cols[0], cols[1]
        unknown = task >= len(tasks)
        bad = unknown | (core >= n_cores)
        if bad.any():
            i = int(np.argmax(bad))
            if unknown[i]:
                raise ValueError(f"segment references unknown task {task[i]}")
            raise ValueError(
                f"segment placed on core {core[i]} but platform has {n_cores}"
            )
        for c in cols:
            c.setflags(write=False)
        self._assign(tasks, n_cores, power, cols)

    def _assign(self, tasks, n_cores, power, cols) -> None:
        self.tasks = tasks
        self.n_cores = int(n_cores)
        self.power = power
        self.task, self.core, self.start, self.end, self.frequency = cols

    def _segments(self, sel=slice(None)) -> Iterator[Segment]:
        """:class:`Segment` objects of the selected rows, in schedule order."""
        return map(Segment, *(getattr(self, c)[sel].tolist() for c in _COLUMNS))

    def _durations(self) -> np.ndarray:
        return self.end - self.start

    # -- Sequence protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return self.task.size

    def __iter__(self) -> Iterator[Segment]:
        return self._segments()

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return tuple(self._segments(i))
        return Segment(*(getattr(self, c)[i].item() for c in _COLUMNS))

    def __repr__(self) -> str:
        return (
            f"Schedule({len(self)} segments, {len(self.tasks)} tasks, "
            f"{self.n_cores} cores, E={self.total_energy():.6g})"
        )

    # -- energy ---------------------------------------------------------------------

    def total_energy(self) -> float:
        """Total energy of all segments: ``Σ p(f)·Δ``."""
        if not len(self):
            return 0.0
        return float(
            np.sum(np.asarray(self.power.power(self.frequency)) * self._durations())
        )

    def task_energy(self, task_id: int) -> float:
        """Energy attributable to one task's segments."""
        sel = self.task == task_id
        if not sel.any():
            return 0.0
        f = self.frequency[sel]
        d = self.end[sel] - self.start[sel]
        return float(np.sum(np.asarray(self.power.power(f)) * d))

    def energy_breakdown(self) -> np.ndarray:
        """Per-task energy as an array indexed by task id."""
        # one scalar power() per segment: a vectorized power() may round
        # differently in the last bit
        p = np.array(
            [float(np.asarray(self.power.power(f))) for f in self.frequency.tolist()]
        )
        return np.bincount(
            self.task, weights=p * self._durations(), minlength=len(self.tasks)
        )

    # -- work accounting --------------------------------------------------------------

    def work_completed(self, task_id: int | None = None):
        """Cycles completed — per task id, or the full per-task array."""
        work = self.frequency * self._durations()
        if task_id is not None:
            return float(sum(work[self.task == task_id].tolist()))
        # bincount adds each task's entries in schedule order
        return np.bincount(self.task, weights=work, minlength=len(self.tasks))

    def completes_all(self, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """True when every task's completed work matches its requirement."""
        return bool(
            np.allclose(self.work_completed(), self.tasks.works, rtol=rtol, atol=atol)
        )

    # -- structure ----------------------------------------------------------------------

    def segments_of_task(self, task_id: int) -> list[Segment]:
        """Segments of one task, in time order."""
        return list(self._segments(self.task == task_id))

    def segments_of_core(self, core: int) -> list[Segment]:
        """Segments on one core, in time order."""
        return list(self._segments(self.core == core))

    def busy_time(self) -> np.ndarray:
        """Per-core total active time."""
        return np.bincount(self.core, weights=self._durations(), minlength=self.n_cores)

    def span(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all segments."""
        if not len(self):
            r, d = self.tasks.horizon
            return (r, r)
        # rows are in start order; argmax picks the first maximal end, as
        # max() does
        return (self.start[0].item(), self.end[np.argmax(self.end)].item())

    def preemption_count(self) -> int:
        """Number of task segment boundaries beyond the first per task."""
        return len(self) - np.unique(self.task).size

    def migration_count(self) -> int:
        """Number of times a task's consecutive segments change core."""
        # rows are in (start, core) order within each task
        order = np.argsort(self.task, kind="stable")
        t, c = self.task[order], self.core[order]
        return int(np.count_nonzero((t[1:] == t[:-1]) & (c[1:] != c[:-1])))

    def with_power(self, power: PowerModel) -> "Schedule":
        """Same segments evaluated under a different power model."""
        other = Schedule.__new__(Schedule)
        other._assign(
            self.tasks, self.n_cores, power, tuple(getattr(self, c) for c in _COLUMNS)
        )
        return other
