"""Schedule validation: every invariant of problem definition §III-C.

:func:`validate_schedule` checks a concrete :class:`~repro.core.schedule.Schedule`
against the constraints the optimization problem imposes:

1. every segment lies inside its task's ``[R_i, D_i]`` window,
2. no core executes two segments simultaneously,
3. no task executes on two cores simultaneously (``Σ_i exc(i,t) ≤ m`` is then
   implied by (2) plus the core count),
4. every task's completed work equals its requirement ``C_i``.

Violations are returned as structured records (or raised in ``strict``
mode), so tests can assert on specific failure categories and the failure
injection suite can confirm each detector fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core.schedule import Schedule

__all__ = ["ViolationKind", "Violation", "validate_schedule", "assert_valid"]


class ViolationKind(Enum):
    """Categories of schedule invariant violations."""

    OUTSIDE_WINDOW = "segment outside task window"
    CORE_CONFLICT = "two segments overlap on one core"
    TASK_PARALLEL = "task executes on two cores at once"
    WORK_MISMATCH = "completed work != requirement"


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected violation with enough context to debug it."""

    kind: ViolationKind
    detail: str
    task_id: int | None = None
    core: int | None = None

    def __str__(self) -> str:
        return f"[{self.kind.name}] {self.detail}"


def _overlap_violations(
    schedule: Schedule, by: str, kind: ViolationKind, tol: float
) -> list[Violation]:
    """Overlaps between time-consecutive segments of one core or one task.

    ``by`` names the grouping column (``"core"`` or ``"task"``).  A row
    overlaps the one before it in its group when it starts more than
    ``tol`` before that one ends.  The schedule's rows are in ``(start,
    core, task)`` order, so a stable sort by the group alone orders each
    group by (start, other id), as a stable sort by start within it would.
    """
    group = getattr(schedule, by)
    order = np.argsort(group, kind="stable")
    g = group[order]
    start, end = schedule.start[order], schedule.end[order]
    hit = (g[1:] == g[:-1]) & (start[1:] < end[:-1] - tol)
    out: list[Violation] = []
    for i in np.flatnonzero(hit).tolist():
        a, b = schedule[int(order[i])], schedule[int(order[i + 1])]
        out.append(
            Violation(
                kind=kind,
                detail=(
                    f"{by} {g[i]} segments [{a.start:g},{a.end:g}] (task {a.task_id}, "
                    f"core {a.core}) and [{b.start:g},{b.end:g}] (task "
                    f"{b.task_id}, core {b.core}) overlap"
                ),
                task_id=a.task_id,
                core=a.core,
            )
        )
    return out


def validate_schedule(
    schedule: Schedule,
    tol: float = 1e-9,
    check_completion: bool = True,
) -> list[Violation]:
    """Return all invariant violations of ``schedule`` (empty list = valid).

    The checks read the schedule's columns; a :class:`Violation` is built
    only for a flagged segment, pair or task.  Violations come in the
    order window, core, task, work, each in segment, core or task order.
    """
    violations: list[Violation] = []
    tasks = schedule.tasks

    # 1. window containment
    r = tasks.releases[schedule.task]
    d = tasks.deadlines[schedule.task]
    outside = (schedule.start < r - tol) | (schedule.end > d + tol)
    for i in np.flatnonzero(outside).tolist():
        s = schedule[i]
        violations.append(
            Violation(
                kind=ViolationKind.OUTSIDE_WINDOW,
                detail=(
                    f"task {s.task_id} segment [{s.start:g},{s.end:g}] outside "
                    f"window [{r[i]:g},{d[i]:g}]"
                ),
                task_id=s.task_id,
                core=s.core,
            )
        )

    # 2. per-core conflicts
    violations.extend(
        _overlap_violations(schedule, "core", ViolationKind.CORE_CONFLICT, tol)
    )
    # 3. intra-task parallelism
    violations.extend(
        _overlap_violations(schedule, "task", ViolationKind.TASK_PARALLEL, tol)
    )

    # 4. work completion
    if check_completion:
        done = schedule.work_completed()
        need = tasks.works
        short = np.abs(done - need) > tol * np.maximum(need, 1.0) + tol
        for tid in np.flatnonzero(short).tolist():
            violations.append(
                Violation(
                    kind=ViolationKind.WORK_MISMATCH,
                    detail=(
                        f"task {tid} completed {done[tid]:g} of required "
                        f"{need[tid]:g}"
                    ),
                    task_id=tid,
                )
            )
    return violations


def assert_valid(schedule: Schedule, tol: float = 1e-9, check_completion: bool = True) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = validate_schedule(schedule, tol=tol, check_completion=check_completion)
    if violations:
        summary = "\n  ".join(str(v) for v in violations[:20])
        extra = "" if len(violations) <= 20 else f"\n  … and {len(violations) - 20} more"
        raise AssertionError(
            f"schedule has {len(violations)} invariant violation(s):\n  {summary}{extra}"
        )
