"""Warm-start protocol for the exact solvers.

A caller that re-solves a convex program whose *variable layout* — the
covered (task, subinterval) pairs — matches a program it just solved (the
core-count sweep, a benchmark's re-solve) can hand the last barrier
iterate to the next solve:

* :class:`WarmStart` is the carried state — the final iterate ``x`` and the
  barrier parameter ``t`` it was centered at.
* :func:`repair_warm_start` makes a carried iterate *strictly feasible* for
  the new program (the sweep changes ``m·Δ_j`` caps; a converged iterate
  hugs active constraints), by blending it toward the program's analytic
  interior point just far enough to restore slack everywhere.

The caller holds the iterate; nothing is kept between solves, so an exact
solve is a function of its instance and options.  Warm starts never change
what is certified: the barrier method still runs to the same relative
duality-gap bound, so warm and cold energies agree to solver tolerance
(pinned at ≤1e-9 by the test-suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import ConvexProblem

__all__ = ["WarmStart", "repair_warm_start"]


@dataclass(frozen=True)
class WarmStart:
    """The last barrier iterate of an interior-point solve.

    Attributes
    ----------
    x:
        Final (clipped-feasible) variable vector.
    t:
        Barrier parameter of the final centering step — the continuation
        restarts a couple of μ-steps below it rather than at ``t_init``.
    """

    x: np.ndarray
    t: float


#: Blend fractions tried, in order, when pulling a carried iterate into the
#: strict interior — the smallest that restores slack everywhere wins.  The
#: ladder starts very fine: a converged donor iterate hugs its active
#: constraints at slack ~1/t, and every unit of blend displaces the
#: objective by ~θ·|E(base) − E(x)|, work the warmed solve must re-do.
_BLENDS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0)

#: Relative slack demanded of a repaired start (of Δ_j / m·Δ_j / the task
#: window).  Large enough that the first centering step is well-conditioned,
#: small enough that near-active structure survives the blend.
_MIN_SLACK = 1e-9


def _strictly_interior(problem: ConvexProblem, x: np.ndarray) -> bool:
    margin_lo = _MIN_SLACK * problem.var_len
    if np.any(x <= margin_lo) or np.any(problem.var_len - x <= margin_lo):
        return False
    col = problem.column_sums(x)
    if np.any(problem.caps - col <= _MIN_SLACK * problem.caps):
        return False
    if problem.min_available is not None:
        slack = problem.available_times(x) - problem.min_available
        scale = _MIN_SLACK * np.maximum(problem.timeline.tasks.windows, 1e-12)
        if np.any((problem.min_available > 0) & (slack <= scale)):
            return False
    return True


def repair_warm_start(
    problem: ConvexProblem, x: np.ndarray | None
) -> np.ndarray | None:
    """A strictly feasible start near ``x``, or ``None`` when ``x`` is unusable.

    The carried iterate is clipped into the box and blended toward
    :meth:`~repro.optimal.convex.ConvexProblem.feasible_start` with the
    smallest fraction that restores strict interiority of every constraint
    (including the frequency cap when present).  Returns ``None`` on a shape
    mismatch or non-finite input — callers then fall back to a cold start.
    """
    if x is None:
        return None
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.k,) or not np.all(np.isfinite(x)):
        return None
    try:
        base = problem.feasible_start()
    except (ValueError, AssertionError):
        return None
    x = np.clip(x, 0.0, problem.var_len)
    for theta in _BLENDS:
        cand = x if theta == 0.0 else (1.0 - theta) * x + theta * base
        if _strictly_interior(problem, cand):
            return cand
    return base if _strictly_interior(problem, base) else None
