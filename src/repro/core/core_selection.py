"""Core-count selection (paper §VI-D, "Additional Remarks").

The paper notes the scheduler need not use every core on the package: before
running the task set, simulate the schedule on 1, 2, …, m_max cores and keep
the core count with the lowest predicted energy.  With static power in the
model, fewer-but-busier cores frequently win when load is light.

:func:`select_core_count` performs exactly that sweep with either allocation
method and returns the full per-count energy profile for reporting.  The
timeline is built **once** per task set — the subinterval grid depends only
on releases/deadlines, never on the core count — and shared by every
candidate scheduler, so the sweep costs one timeline construction plus
``m_max`` allocation passes.

:func:`select_core_count_optimal` runs the same sweep against the *exact*
convex optimum.  Consecutive candidates solve the same program with only the
capacity caps ``m·Δ_j`` changed, so each solve is warm-started from the
previous candidate's barrier iterate (ascending ``m`` keeps the carried
point nearly feasible: capacities only grow), which typically removes a
third to a half of the Newton iterations after the first candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..power.models import PolynomialPower
from .allocation import AllocationMethod
from .intervals import Timeline
from .scheduler import SchedulingResult, SubintervalScheduler
from .task import TaskSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..optimal.convex import OptimalSolution

__all__ = [
    "CoreSelection",
    "OptimalCoreSelection",
    "select_core_count",
    "select_core_count_optimal",
]


@dataclass(frozen=True)
class CoreSelection:
    """Result of the core-count sweep.

    Attributes
    ----------
    best_m:
        The energy-minimizing core count.
    best:
        The winning :class:`~repro.core.scheduler.SchedulingResult`.
    energies:
        Energy per candidate count (indexed as ``counts``).
    counts:
        The candidate core counts that were evaluated.
    """

    best_m: int
    best: SchedulingResult
    energies: np.ndarray
    counts: np.ndarray

    def profile(self) -> list[tuple[int, float]]:
        """``(core count, energy)`` pairs, in evaluation order."""
        return [(int(m), float(e)) for m, e in zip(self.counts, self.energies)]


@dataclass(frozen=True)
class OptimalCoreSelection:
    """Result of the exact-optimum core-count sweep.

    Attributes
    ----------
    best_m:
        The energy-minimizing core count.
    best:
        The winning :class:`~repro.optimal.convex.OptimalSolution`.
    energies:
        Optimal energy per candidate count (indexed as ``counts``).
    counts:
        The candidate core counts that were evaluated.
    newton_iterations:
        Newton iterations spent per candidate — the warm-start savings
        show up here as a drop after the first entry.
    """

    best_m: int
    best: "OptimalSolution"
    energies: np.ndarray
    counts: np.ndarray
    newton_iterations: tuple[int, ...]

    def profile(self) -> list[tuple[int, float]]:
        """``(core count, energy)`` pairs, in evaluation order."""
        return [(int(m), float(e)) for m, e in zip(self.counts, self.energies)]


def select_core_count(
    tasks: TaskSet,
    m_max: int,
    power: PolynomialPower,
    method: AllocationMethod = "der",
    m_min: int = 1,
) -> CoreSelection:
    """Sweep core counts ``m_min..m_max`` and keep the cheapest schedule.

    Ties break toward fewer cores (cheaper to keep powered in practice).
    """
    if m_min < 1 or m_max < m_min:
        raise ValueError("need 1 <= m_min <= m_max")
    counts = np.arange(m_min, m_max + 1)
    energies = np.empty(len(counts))
    results: list[SchedulingResult] = []
    timeline = Timeline(tasks)
    for idx, m in enumerate(counts):
        res = SubintervalScheduler(
            tasks, int(m), power, timeline=timeline
        ).final(method)
        energies[idx] = res.energy
        results.append(res)
    best_idx = int(np.argmin(energies))
    return CoreSelection(
        best_m=int(counts[best_idx]),
        best=results[best_idx],
        energies=energies,
        counts=counts,
    )


def select_core_count_optimal(
    tasks: TaskSet,
    m_max: int,
    power: PolynomialPower,
    m_min: int = 1,
    kernel: str = "auto",
) -> OptimalCoreSelection:
    """Sweep core counts against the exact convex optimum, warm-starting.

    One timeline and an ascending-``m`` chain of warm starts: candidate
    ``m+1`` resolves the same program with larger capacity caps, seeded
    from candidate ``m``'s final barrier iterate.  Energies match cold
    solves to solver tolerance (≤1e-9 relative, pinned by the test-suite).
    Ties break toward fewer cores.
    """
    from ..optimal import ConvexProblem, solve_problem
    from ..optimal.interior_point import MU
    from ..optimal.warm import WarmStart

    if m_min < 1 or m_max < m_min:
        raise ValueError("need 1 <= m_min <= m_max")
    counts = np.arange(m_min, m_max + 1)
    energies = np.empty(len(counts))
    iters: list[int] = []
    solutions: list["OptimalSolution"] = []
    timeline = Timeline(tasks)
    carried: WarmStart | None = None
    for idx, m in enumerate(counts):
        problem = ConvexProblem(timeline, int(m), power)
        sol = solve_problem(
            problem,
            "interior-point",
            kernel=kernel,
            warm=carried,
        )
        energies[idx] = sol.energy
        iters.append(
            sol.profile.total_newton if sol.profile else sol.iterations
        )
        solutions.append(sol)
        if sol.profile is not None and np.isfinite(sol.profile.t_certified):
            # one extra μ-step of backoff beyond the standard warm protocol:
            # the next candidate's optimum moves with the capacity caps, so
            # the carried iterate is farther off than a same-instance warm
            carried = WarmStart(x=sol.x, t=sol.profile.t_certified / MU)
    best_idx = int(np.argmin(energies))
    return OptimalCoreSelection(
        best_m=int(counts[best_idx]),
        best=solutions[best_idx],
        energies=energies,
        counts=counts,
        newton_iterations=tuple(iters),
    )
