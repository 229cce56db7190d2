"""Execution traces: what actually happened during a simulation run.

The executor and the online baselines emit :class:`TraceRecord` rows; the
:class:`ExecutionTrace` container aggregates them into per-task and per-core
statistics (completion times, lateness, energy, utilization) that the
experiment harness and the examples report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..core.task import TaskSet

__all__ = ["TraceRecord", "ExecutionTrace", "TaskOutcome"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One executed slice: task ``task_id`` ran on ``core`` at ``frequency``."""

    task_id: int
    core: int
    start: float
    end: float
    frequency: float
    energy: float

    @property
    def duration(self) -> float:
        """Slice length."""
        return self.end - self.start

    @property
    def work(self) -> float:
        """Cycles completed in the slice."""
        return self.frequency * self.duration


@dataclass(frozen=True)
class TaskOutcome:
    """Per-task summary of a run."""

    task_id: int
    work_done: float
    work_required: float
    completion_time: float | None
    deadline: float
    energy: float

    @property
    def completed(self) -> bool:
        """True when all required work was executed."""
        return self.work_done >= self.work_required * (1 - 1e-9)

    @property
    def met_deadline(self) -> bool:
        """True when completed at or before the deadline."""
        return (
            self.completed
            and self.completion_time is not None
            and self.completion_time <= self.deadline + 1e-9
        )

    @property
    def lateness(self) -> float:
        """``completion − deadline`` (positive = late); ``inf`` if unfinished."""
        if not self.completed or self.completion_time is None:
            return float("inf")
        return self.completion_time - self.deadline


class ExecutionTrace:
    """Ordered collection of :class:`TraceRecord` with aggregation helpers."""

    __slots__ = ("tasks", "n_cores", "_records")

    def __init__(self, tasks: TaskSet, n_cores: int, records: Iterable[TraceRecord]):
        self.tasks = tasks
        self.n_cores = int(n_cores)
        self._records = tuple(sorted(records, key=lambda r: (r.start, r.core)))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> TraceRecord:
        return self._records[i]

    @property
    def total_energy(self) -> float:
        """Energy of the whole run."""
        return float(sum(r.energy for r in self._records))

    def task_outcomes(self) -> list[TaskOutcome]:
        """Per-task outcome rows, indexed by task id."""
        n = len(self.tasks)
        work = np.zeros(n)
        energy = np.zeros(n)
        completion: list[float | None] = [None] * n
        # accumulate in time order so completion_time is the instant the
        # required work is reached
        for r in self._records:
            tid = r.task_id
            before = work[tid]
            work[tid] += r.work
            energy[tid] += r.energy
            need = self.tasks.works[tid]
            if before < need <= work[tid] + 1e-12:
                # completion occurs inside this slice
                deficit = need - before
                frac = min(max(deficit / max(r.work, 1e-300), 0.0), 1.0)
                completion[tid] = r.start + frac * r.duration
        return [
            TaskOutcome(
                task_id=i,
                work_done=float(work[i]),
                work_required=float(self.tasks.works[i]),
                completion_time=completion[i],
                deadline=float(self.tasks.deadlines[i]),
                energy=float(energy[i]),
            )
            for i in range(n)
        ]

    def deadline_misses(self) -> list[int]:
        """Task ids that missed their deadline (or never finished)."""
        return [o.task_id for o in self.task_outcomes() if not o.met_deadline]

    def core_utilization(self, horizon: tuple[float, float] | None = None) -> np.ndarray:
        """Fraction of the horizon each core was active."""
        lo, hi = horizon if horizon is not None else self.tasks.horizon
        span = max(hi - lo, 1e-300)
        busy = np.zeros(self.n_cores)
        for r in self._records:
            busy[r.core] += r.duration
        return busy / span

    def by_core(self, core: int) -> list[TraceRecord]:
        """Records of one core, time ordered."""
        return [r for r in self._records if r.core == core]

    def by_task(self, task_id: int) -> list[TraceRecord]:
        """Records of one task, time ordered."""
        return [r for r in self._records if r.task_id == task_id]
