"""Aperiodic task model.

The paper schedules a set of independent, preemptive, migratable aperiodic
tasks.  Each task :class:`Task` is the three-tuple ``(R_i, D_i, C_i)`` of
release time, deadline, and execution requirement (work expressed in
frequency-time units: a task with requirement ``C`` running at constant
frequency ``f`` finishes in ``C / f`` time units).

:class:`TaskSet` is an immutable, validated collection with the derived
quantities the scheduling pipeline needs (global horizon, per-task windows,
intensities) exposed as NumPy arrays so downstream code can stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Task", "TaskSet", "check_task"]


def check_task(release: float, deadline: float, work: float) -> None:
    """Raise :class:`ValueError` unless ``(release, deadline, work)`` is a task.

    The one validation of a task's numbers: :class:`Task` runs it on
    construction, and the service's request parser runs it on each row
    it reads without building a :class:`Task`.
    """
    if not math.isfinite(release):
        raise ValueError(f"release must be finite, got {release!r}")
    if not math.isfinite(deadline):
        raise ValueError(f"deadline must be finite, got {deadline!r}")
    if not math.isfinite(work):
        raise ValueError(f"work must be finite, got {work!r}")
    if deadline <= release:
        raise ValueError(
            f"deadline ({deadline}) must be strictly greater than "
            f"release ({release})"
        )
    if work <= 0.0:
        raise ValueError(f"work must be positive, got {work}")


@dataclass(frozen=True, slots=True)
class Task:
    """One aperiodic task ``τ = (R, D, C)``.

    Parameters
    ----------
    release:
        Release time ``R`` — the task cannot execute before this instant.
    deadline:
        Absolute deadline ``D`` — all ``C`` units of work must complete by
        this instant.  Must satisfy ``D > R``.
    work:
        Execution requirement ``C > 0`` in cycles (frequency × time).
    name:
        Optional human-readable label used in Gantt charts and traces.
    """

    release: float
    deadline: float
    work: float
    name: str = ""

    def __post_init__(self) -> None:
        check_task(self.release, self.deadline, self.work)

    @property
    def window(self) -> float:
        """Length of the feasibility window ``D - R``."""
        return self.deadline - self.release

    @property
    def intensity(self) -> float:
        """Task intensity ``C / (D - R)``.

        This is the minimum constant frequency at which the task meets its
        deadline when it may occupy a core for its whole window.  The paper's
        workload generator draws this quantity directly (§VI).
        """
        return self.work / self.window

    def label(self, index: int | None = None) -> str:
        """Display label: explicit :attr:`name` or ``τ{index+1}``."""
        if self.name:
            return self.name
        if index is None:
            return f"τ(R={self.release:g},D={self.deadline:g},C={self.work:g})"
        return f"τ{index + 1}"

    def as_tuple(self) -> tuple[float, float, float]:
        """Return ``(release, deadline, work)``."""
        return (self.release, self.deadline, self.work)


class TaskSet(Sequence[Task]):
    """An immutable, validated collection of :class:`Task`.

    Exposes vectorized views (``releases``, ``deadlines``, ``works``) so the
    scheduling and optimization layers can avoid per-task Python loops, per
    the optimization guidance this project follows.
    """

    __slots__ = ("_tasks", "_releases", "_deadlines", "_works")

    def __init__(self, tasks: Iterable[Task]):
        tup = tuple(tasks)
        if not tup:
            raise ValueError("TaskSet must contain at least one task")
        for t in tup:
            if not isinstance(t, Task):
                raise TypeError(f"expected Task, got {type(t).__name__}")
        self._tasks: tuple[Task, ...] = tup
        self._releases = np.array([t.release for t in tup], dtype=np.float64)
        self._deadlines = np.array([t.deadline for t in tup], dtype=np.float64)
        self._works = np.array([t.work for t in tup], dtype=np.float64)
        self._releases.setflags(write=False)
        self._deadlines.setflags(write=False)
        self._works.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_tuples(
        cls, triples: Iterable[tuple[float, float, float]]
    ) -> "TaskSet":
        """Build from ``(release, deadline, work)`` triples."""
        return cls(Task(r, d, c) for (r, d, c) in triples)

    @classmethod
    def from_arrays(
        cls,
        releases: np.ndarray,
        deadlines: np.ndarray,
        works: np.ndarray,
    ) -> "TaskSet":
        """Build from three equal-length arrays."""
        releases = np.asarray(releases, dtype=np.float64)
        deadlines = np.asarray(deadlines, dtype=np.float64)
        works = np.asarray(works, dtype=np.float64)
        if not (releases.shape == deadlines.shape == works.shape):
            raise ValueError("releases, deadlines, works must have equal shape")
        if releases.ndim != 1:
            raise ValueError("expected 1-D arrays")
        return cls(
            Task(float(r), float(d), float(c))
            for r, d, c in zip(releases, deadlines, works)
        )

    # -- Sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return TaskSet(self._tasks[index])
        return self._tasks[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({t.release:g},{t.deadline:g},{t.work:g})" for t in self._tasks[:6]
        )
        more = "" if len(self) <= 6 else f", … ({len(self)} tasks)"
        return f"TaskSet[{inner}{more}]"

    # -- vectorized views -------------------------------------------------------

    @property
    def releases(self) -> np.ndarray:
        """Read-only float64 array of release times ``R_i``."""
        return self._releases

    @property
    def deadlines(self) -> np.ndarray:
        """Read-only float64 array of deadlines ``D_i``."""
        return self._deadlines

    @property
    def works(self) -> np.ndarray:
        """Read-only float64 array of execution requirements ``C_i``."""
        return self._works

    @property
    def windows(self) -> np.ndarray:
        """``D_i - R_i`` for every task."""
        return self._deadlines - self._releases

    @property
    def intensities(self) -> np.ndarray:
        """``C_i / (D_i - R_i)`` for every task."""
        return self._works / self.windows

    # -- derived global quantities ---------------------------------------------

    @property
    def horizon(self) -> tuple[float, float]:
        """``(R̄, D̄)`` — earliest release and latest deadline."""
        return (float(self._releases.min()), float(self._deadlines.max()))

    @property
    def total_work(self) -> float:
        """Sum of all execution requirements."""
        return float(self._works.sum())

    def event_times(self) -> np.ndarray:
        """Sorted distinct release/deadline values ``t_1 < … < t_N``.

        These are the subinterval boundaries of §IV-B of the paper.
        """
        return np.unique(np.concatenate([self._releases, self._deadlines]))

    def covers(self, start: float, end: float) -> np.ndarray:
        """Boolean mask of tasks overlapping ``[start, end]``.

        A task *overlaps* the subinterval when ``R_i <= start`` and
        ``D_i >= end`` (the paper's definition of overlapping tasks during a
        subinterval).  Because subintervals never straddle a release or
        deadline, partial overlap cannot occur.
        """
        return (self._releases <= start) & (self._deadlines >= end)

    def shifted(self, offset: float) -> "TaskSet":
        """Return a copy with all releases/deadlines shifted by ``offset``."""
        return TaskSet(
            Task(t.release + offset, t.deadline + offset, t.work, t.name)
            for t in self._tasks
        )

    def scaled(self, time_scale: float = 1.0, work_scale: float = 1.0) -> "TaskSet":
        """Return a copy with times and/or works rescaled.

        Useful for unit conversions (e.g. seconds↔megacycles when working
        with the MHz-denominated XScale power table).
        """
        if time_scale <= 0 or work_scale <= 0:
            raise ValueError("scales must be positive")
        return TaskSet(
            Task(
                t.release * time_scale,
                t.deadline * time_scale,
                t.work * work_scale,
                t.name,
            )
            for t in self._tasks
        )
