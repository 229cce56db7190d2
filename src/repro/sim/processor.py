"""Simulated DVFS cores (paper §III-B platform model).

Each :class:`SimCore` integrates energy exactly per the paper: *active* at
frequency ``f`` it draws ``p(f)``; with no task it *sleeps immediately* at
zero power.  Frequency changes and task switches are instantaneous (the
paper's ideal-core assumption); the executor layers validity checks on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.models import PowerModel

__all__ = ["CoreBusyError", "SimCore", "SimProcessor"]


class CoreBusyError(RuntimeError):
    """Raised when a task is dispatched to a core that is already executing."""


@dataclass
class SimCore:
    """One DVFS-enabled processing core.

    State machine: ``sleeping`` ⇄ ``active(task, frequency)``.  All energy
    is attributed on transition out of the active state, so the accounting is
    exact regardless of how callers slice time.
    """

    index: int
    power: PowerModel
    current_task: int | None = None
    frequency: float = 0.0
    busy_since: float = 0.0
    energy: float = 0.0
    active_time: float = 0.0
    work_done: float = 0.0

    @property
    def is_active(self) -> bool:
        """True while a task occupies the core."""
        return self.current_task is not None

    def start(self, t: float, task_id: int, frequency: float) -> None:
        """Begin executing ``task_id`` at ``frequency`` from time ``t``."""
        if self.is_active:
            raise CoreBusyError(
                f"core {self.index} already executing task {self.current_task} "
                f"when task {task_id} dispatched at t={t}"
            )
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.current_task = task_id
        self.frequency = frequency
        self.busy_since = t

    def stop(self, t: float) -> tuple[int, float]:
        """End the current execution at time ``t``.

        Returns ``(task_id, work_completed)`` for the elapsed activity and
        puts the core to sleep.
        """
        if not self.is_active:
            raise RuntimeError(f"core {self.index} stopped while sleeping")
        if t < self.busy_since - 1e-12:
            raise ValueError("cannot stop before start")
        duration = max(t - self.busy_since, 0.0)
        task_id = self.current_task
        assert task_id is not None
        work = self.frequency * duration
        self.energy += float(np.asarray(self.power.power(self.frequency))) * duration
        self.active_time += duration
        self.work_done += work
        self.current_task = None
        self.frequency = 0.0
        return task_id, work


class SimProcessor:
    """A package of ``m`` homogeneous :class:`SimCore` objects."""

    __slots__ = ("cores", "power")

    def __init__(self, m: int, power: PowerModel):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.power = power
        self.cores = [SimCore(index=k, power=power) for k in range(m)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, k: int) -> SimCore:
        return self.cores[k]

    @property
    def total_energy(self) -> float:
        """Energy accumulated across all cores so far."""
        return sum(c.energy for c in self.cores)

    @property
    def total_active_time(self) -> float:
        """Total core-time spent active."""
        return sum(c.active_time for c in self.cores)

    def idle_cores(self) -> list[SimCore]:
        """Cores currently sleeping, lowest index first."""
        return [c for c in self.cores if not c.is_active]

    def executing(self, task_id: int) -> SimCore | None:
        """The core currently running ``task_id``, if any."""
        for c in self.cores:
            if c.current_task == task_id:
                return c
        return None

    def stop_all(self, t: float) -> list[tuple[int, float]]:
        """Stop every active core at time ``t``; returns completions."""
        out = []
        for c in self.cores:
            if c.is_active:
                out.append(c.stop(t))
        return out
