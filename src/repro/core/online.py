"""Online (non-clairvoyant) variant of the subinterval scheduler.

The paper's algorithms are offline: all releases, deadlines, and execution
requirements are known up front.  In deployment, aperiodic tasks *arrive* —
the scheduler only learns a task at its release.  The natural online
adaptation (noted as easy to implement in practical systems, §VI-D) is
**re-planning**: at every release instant, rebuild the subinterval plan over
the currently-known unfinished work and execute it until the next arrival.

Because the continuous frequency range is unbounded, every re-plan is
feasible for whatever work remains, so the online scheduler inherits the
offline pipeline's guarantee that all deadlines are met — it just pays an
energy premium for its ignorance of the future.  The premium is measured by
the ``ablation_online`` experiment.

Each re-plan is a handful of deltas on one
:class:`~repro.core.incremental.ScheduleSession` carried across arrival
instants (retire finished tasks,
:meth:`~repro.core.incremental.ScheduleSession.advance_to` the current
time, admit the new arrivals) instead of a full pipeline rebuild.  The
session's plan is bit-identical to a batch rebuild over the same rows (see
:mod:`repro.core.incremental`), so the executed schedule equals the one a
full re-plan at every release would produce; the test-suite runs the same
event loop with that rebuild as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..power.models import PolynomialPower
from .allocation import AllocationMethod
from .incremental import ScheduleSession
from .schedule import Schedule, Segment
from .task import Task, TaskSet

__all__ = ["OnlineResult", "OnlineSubintervalScheduler"]

_EPS = 1e-9

#: One re-plan instant: ``(now, known, remaining, horizon_end)`` →
#: ``(plan segments, subintervals recomputed, subintervals in the plan)``.
#: ``known`` lists the released unfinished tasks (ascending index) and
#: ``remaining`` their outstanding work; segments use global task ids.
Replan = Callable[
    [float, list[int], np.ndarray, float | None], tuple[list[Segment], int, int]
]


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an online run.

    ``touched_subintervals`` / ``total_subintervals`` aggregate the delta
    cost accounting over the whole run: how many subinterval allocations
    were actually recomputed versus how many existed across all re-plans.
    A full rebuild at every release recomputes everything (ratio 1).
    """

    schedule: Schedule
    replans: int
    touched_subintervals: int = 0
    total_subintervals: int = 0

    @cached_property
    def energy(self) -> float:
        """Total energy of the executed schedule (integrated once, cached)."""
        return self.schedule.total_energy()

    @property
    def touched_ratio(self) -> float:
        """Fraction of subinterval allocations recomputed across the run."""
        if self.total_subintervals == 0:
            return 1.0
        return self.touched_subintervals / self.total_subintervals


class OnlineSubintervalScheduler:
    """Event-driven re-planning wrapper around the offline pipeline.

    Parameters
    ----------
    tasks:
        The ground-truth task set (revealed to the scheduler release by
        release).
    m, power:
        Platform definition.
    method:
        Heavy-subinterval allocation policy used at every re-plan.
    """

    def __init__(
        self,
        tasks: TaskSet,
        m: int,
        power: PolynomialPower,
        method: AllocationMethod = "der",
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.tasks = tasks
        self.m = int(m)
        self.power = power
        self.method: AllocationMethod = method

    def run(self) -> OnlineResult:
        """Simulate the arrival process and return the executed schedule."""
        return self._drive(self._session_replan())

    def _drive(self, replan: Replan) -> OnlineResult:
        """The event loop: at every release instant, re-plan the known
        unfinished work with ``replan`` and execute it until the next one."""
        tasks = self.tasks
        remaining = tasks.works.copy()
        # relative: at large time scales (say µs) rounding dust of the
        # executed work exceeds any absolute epsilon
        finished = 1e-7 * np.maximum(tasks.works, 1.0)
        release_times = np.unique(tasks.releases).tolist()
        executed: list[Segment] = []
        replans = touched = total = 0

        for k, now in enumerate(release_times):
            horizon_end = release_times[k + 1] if k + 1 < len(release_times) else None
            known = np.flatnonzero(
                (tasks.releases <= now + _EPS) & (remaining > finished)
            ).tolist()
            for i in known:
                if float(tasks.deadlines[i]) <= now + _EPS:
                    raise AssertionError(
                        f"task {i} has remaining work past its deadline (bug)"
                    )
            plan_segments, n_touched, n_total = replan(
                now, known, remaining, horizon_end
            )
            touched += n_touched
            total += n_total
            if known:
                replans += 1
                self._execute_until(plan_segments, horizon_end, executed, remaining)

        remaining = np.where(remaining > finished, remaining, 0.0)
        if np.any(remaining > 0):
            leftover = {int(i): float(w) for i, w in enumerate(remaining) if w > 0}
            raise AssertionError(f"online run left work unfinished: {leftover}")
        return OnlineResult(
            schedule=Schedule(tasks, self.m, self.power, executed),
            replans=replans,
            touched_subintervals=touched,
            total_subintervals=total,
        )

    @staticmethod
    def _execute_until(
        plan_segments: list[Segment],
        horizon_end: float | None,
        executed: list[Segment],
        remaining: np.ndarray,
    ) -> None:
        """Execute ``plan_segments`` up to ``horizon_end``, clipping at it."""
        if horizon_end is None:
            # last arrival: execute the plan to completion
            executed.extend(plan_segments)
            for seg in plan_segments:
                remaining[seg.task_id] -= seg.work
            return
        for seg in plan_segments:
            if seg.start >= horizon_end - _EPS:
                continue
            end = min(seg.end, horizon_end)
            if end - seg.start <= _EPS:
                continue
            clipped = Segment(seg.task_id, seg.core, seg.start, end, seg.frequency)
            executed.append(clipped)
            remaining[seg.task_id] -= clipped.work

    def _session_replan(self) -> Replan:
        """The production re-plan: deltas on one carried session."""
        deadlines = self.tasks.deadlines
        session = ScheduleSession(self.m, self.power, method=self.method)
        handles: dict[int, int] = {}  # global task index -> session handle
        order: list[int] = []  # global indices in session row order (ascending)

        def replan(now, known, remaining, horizon_end):
            touched0, total0 = session.touched_columns, session.total_columns
            known_set = set(known)
            # retire tasks that finished inside the last window *before*
            # advancing time — their deadlines may not be after ``now``
            for g in [g for g in order if g not in known_set]:
                session.complete_task(handles.pop(g))
                order.remove(g)

            segments: list[Segment] = []
            if known:
                # re-anchor the carried-over tasks to ``now`` with their
                # remaining work — the delta analogue of rebuilding over
                # Task(now, D_i, remaining_i)
                if not session.is_empty:
                    session.advance_to(
                        now, works={handles[g]: float(remaining[g]) for g in order}
                    )
                # admit this instant's arrivals, preserving ascending
                # original index as the row order (bit-exactness against a
                # batch rebuild requires identical row order)
                for g in known:
                    if g not in handles:
                        idx = int(np.searchsorted(np.asarray(order), g))
                        handles[g] = session.add_task(
                            Task(now, float(deadlines[g]), float(remaining[g])),
                            index=idx,
                        )
                        order.insert(idx, g)
                segments = [
                    Segment(order[s.task_id], s.core, s.start, s.end, s.frequency)
                    for s in session.final_segments(before=horizon_end)
                ]
            return (
                segments,
                session.touched_columns - touched0,
                session.total_columns - total0,
            )

        return replan
