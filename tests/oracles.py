"""Reference implementations the production paths are checked against.

Each oracle is the straightforward version of a step that production runs
batched or incrementally:

* :func:`scalar_plan` — the per-subinterval allocation loop behind
  :func:`repro.core.allocation.build_allocation_plan`;
* :func:`scalar_slots` — the per-subinterval :func:`wrap_schedule` loop
  behind :func:`repro.core.wrap_schedule.pack_matrix_flat`;
* :func:`online_rebuild` — the online event loop with a full batch re-plan
  at every release, behind the incremental session's delta re-plan;
* :func:`batch_oracle` — a fresh batch scheduler over a session's rows;
* :func:`project_capped_box` — the single-column bisection behind
  :func:`repro.optimal.project_columns`.

The tests and the benchmarks import this module; nothing under ``src/``
does.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AllocationPlan,
    IdealSolution,
    OnlineResult,
    OnlineSubintervalScheduler,
    ScheduleSession,
    Segment,
    Slot,
    SubintervalScheduler,
    Task,
    TaskSet,
    Timeline,
    allocate_der,
    allocate_evenly,
    wrap_schedule,
)
from repro.power import PolynomialPower

__all__ = [
    "batch_oracle",
    "online_rebuild",
    "project_capped_box",
    "scalar_plan",
    "scalar_slots",
]


def scalar_plan(
    timeline: Timeline,
    m: int,
    method: str,
    ideal: IdealSolution | None = None,
) -> AllocationPlan:
    """The allocation plan built one subinterval at a time."""
    x = np.zeros((len(timeline.tasks), len(timeline)))
    for sub in timeline:
        if sub.n_overlapping == 0:
            continue
        if sub.is_heavy(m):
            if method == "even":
                alloc = allocate_evenly(sub, m)
            else:
                alloc = allocate_der(sub, m, ideal)
            for tid, t in alloc.items():
                x[tid, sub.index] = t
        else:
            for tid in sub.task_ids:
                x[tid, sub.index] = sub.length
    plan = AllocationPlan(timeline=timeline, m=m, method=method, x=x)
    plan.check()
    return plan


def scalar_slots(
    scheduler: SubintervalScheduler, plan: AllocationPlan
) -> list[list[Slot]]:
    """Per-subinterval slots: wrap packing for heavy columns, one core per
    task for light ones."""
    out: list[list[Slot]] = []
    for sub in scheduler.timeline:
        if sub.n_overlapping == 0:
            out.append([])
        elif sub.is_heavy(scheduler.m):
            alloc = {tid: float(plan.x[tid, sub.index]) for tid in sub.task_ids}
            out.append(wrap_schedule(sub.start, sub.end, alloc, scheduler.m))
        else:
            out.append(
                [
                    Slot(tid, core, sub.start, sub.end)
                    for core, tid in enumerate(sub.task_ids)
                ]
            )
    return out


def online_rebuild(
    tasks: TaskSet, m: int, power: PolynomialPower, method: str = "der"
) -> OnlineResult:
    """The online run with a fresh batch plan over ``Task(now, D_i,
    remaining_i)`` of the known tasks at every release instant.

    The re-plan reads only the event loop's own ``known``/``remaining``
    arrays, so it shares no state with the incremental session.
    """

    def replan(now, known, remaining, horizon_end):
        if not known:
            return [], 0, 0
        sub_tasks = TaskSet(
            [Task(now, float(tasks.deadlines[i]), float(remaining[i])) for i in known]
        )
        scheduler = SubintervalScheduler(sub_tasks, m, power)
        plan = scheduler.final(method)
        segments = [
            Segment(known[s.task_id], s.core, s.start, s.end, s.frequency)
            for s in plan.schedule
        ]
        n_cols = len(scheduler.timeline)
        return segments, n_cols, n_cols

    return OnlineSubintervalScheduler(tasks, m, power, method=method)._drive(replan)


def batch_oracle(session: ScheduleSession) -> SubintervalScheduler:
    """A fresh batch scheduler over the session's current rows."""
    return SubintervalScheduler(session.taskset(), session.m, session.power)


def project_capped_box(y: np.ndarray, upper: np.ndarray, cap: float) -> np.ndarray:
    """Project ``y`` onto ``{0 ≤ x ≤ upper, Σx ≤ cap}`` (Euclidean).

    Bisection on the threshold ``θ`` of ``x(θ) = clip(y − θ, 0, upper)``;
    ``Σ x(θ)`` is continuous and nonincreasing in ``θ``.
    """
    x0 = np.clip(y, 0.0, upper)
    total = x0.sum()
    if total <= cap + 1e-15 * max(cap, 1.0):
        return x0
    lo, hi = 0.0, float(np.max(y))  # at θ = max(y), sum is 0 ≤ cap
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        s = np.clip(y - mid, 0.0, upper).sum()
        if s > cap:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return np.clip(y - hi, 0.0, upper)
