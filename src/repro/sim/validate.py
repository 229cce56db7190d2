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
    items: list, key: str, kind: ViolationKind, tol: float
) -> list[Violation]:
    """Detect pairwise overlaps within a pre-grouped, time-sorted list."""
    out: list[Violation] = []
    for a, b in zip(items, items[1:]):
        if b.start < a.end - tol:
            out.append(
                Violation(
                    kind=kind,
                    detail=(
                        f"{key} segments [{a.start:g},{a.end:g}] (task {a.task_id}, "
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
    """Return all invariant violations of ``schedule`` (empty list = valid)."""
    violations: list[Violation] = []
    tasks = schedule.tasks

    # 1. window containment
    for s in schedule:
        r = tasks.releases[s.task_id]
        d = tasks.deadlines[s.task_id]
        if s.start < r - tol or s.end > d + tol:
            violations.append(
                Violation(
                    kind=ViolationKind.OUTSIDE_WINDOW,
                    detail=(
                        f"task {s.task_id} segment [{s.start:g},{s.end:g}] outside "
                        f"window [{r:g},{d:g}]"
                    ),
                    task_id=s.task_id,
                    core=s.core,
                )
            )

    # 2. per-core conflicts
    for core in range(schedule.n_cores):
        segs = sorted(schedule.segments_of_core(core), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"core {core}", ViolationKind.CORE_CONFLICT, tol)
        )

    # 3. intra-task parallelism
    for tid in range(len(tasks)):
        segs = sorted(schedule.segments_of_task(tid), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"task {tid}", ViolationKind.TASK_PARALLEL, tol)
        )

    # 4. work completion
    if check_completion:
        done = schedule.work_completed()
        for tid in range(len(tasks)):
            need = tasks.works[tid]
            if abs(done[tid] - need) > tol * max(need, 1.0) + tol:
                violations.append(
                    Violation(
                        kind=ViolationKind.WORK_MISMATCH,
                        detail=(
                            f"task {tid} completed {done[tid]:g} of required "
                            f"{need:g}"
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
