"""Optimality certificates via KKT / fixed-point residuals.

For a convex problem over a closed convex set ``X``, ``x*`` is optimal iff it
is a fixed point of the projected-gradient map:
``x* = P_X(x* − s·∇f(x*))`` for any step ``s > 0``.  This gives a cheap,
solver-independent certificate that the test-suite applies to every solver's
output, complementing the cross-solver agreement checks.

Also provides an explicit dual-variable reconstruction for reporting which
constraints are active at the optimum (which subintervals are saturated —
exactly the "heavily loaded" subintervals the paper's heuristic targets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import ConvexProblem
from .projected_gradient import project_columns

__all__ = ["projection_residual", "verify_optimality", "active_constraints", "ActivityReport"]


def projection_residual(
    problem: ConvexProblem, x: np.ndarray, step: float = 1e-4
) -> float:
    """Scaled fixed-point residual ``‖P(x − s∇f) − x‖∞ / s``.

    Zero (to numerical precision) iff ``x`` satisfies the KKT conditions.
    The division by ``s`` makes the value comparable to gradient magnitudes.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    g = problem.gradient(x)
    moved = project_columns(problem, x - step * g)
    return float(np.max(np.abs(moved - x)) / step)


def verify_optimality(
    problem: ConvexProblem,
    x: np.ndarray,
    tol: float = 1e-3,
    step: float = 1e-4,
) -> bool:
    """True when ``x`` is feasible and its KKT residual is below ``tol``.

    ``tol`` is relative to the largest gradient magnitude, so the check is
    scale-free across power models.
    """
    problem.check_feasible(x, tol=1e-6)
    g = problem.gradient(x)
    scale = max(float(np.max(np.abs(g))), 1e-12)
    return projection_residual(problem, x, step) <= tol * scale


@dataclass(frozen=True)
class ActivityReport:
    """Which constraints bind at a candidate optimum."""

    saturated_subintervals: np.ndarray  # Σ_i x_{i,j} == m·Δ_j
    at_upper: np.ndarray  # variables with x = Δ_j
    at_zero: np.ndarray  # variables with x = 0

    @property
    def n_saturated(self) -> int:
        """Number of capacity-saturated subintervals."""
        return int(self.saturated_subintervals.sum())


def active_constraints(
    problem: ConvexProblem, x: np.ndarray, rtol: float = 1e-6
) -> ActivityReport:
    """Classify active constraints of a feasible point."""
    col = problem.column_sums(x)
    sat = col >= problem.caps * (1.0 - rtol)
    at_upper = x >= problem.var_len * (1.0 - rtol)
    at_zero = x <= problem.var_len * rtol
    return ActivityReport(
        saturated_subintervals=sat, at_upper=at_upper, at_zero=at_zero
    )
