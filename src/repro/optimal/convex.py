"""The paper's convex reformulation (eqs. 13–15).

Decision variables: the execution time ``x_{i,j}`` of task ``i`` during
subinterval ``j``, defined only for *covered* pairs (``[t_j, t_{j+1}] ⊆
[R_i, D_i]``).  With ``A_i = Σ_j x_{i,j}`` and Observation 1 (one common
frequency ``f_i = C_i / A_i`` per task), the energy objective is

    ``E(x) = Σ_i [ γ·C_i^α / A_i^{α−1} + p₀·A_i ]``

subject to the linear constraints

    ``0 ≤ x_{i,j} ≤ Δ_j``   and   ``Σ_i x_{i,j} ≤ m·Δ_j``.

Any feasible ``x`` is realizable as a collision-free schedule via Algorithm 1
(McNaughton), so the minimum of this program is the exact optimal energy
``E^(O)`` used to normalize every result in §VI.

:class:`ConvexProblem` flattens the covered pairs into one variable vector
and provides vectorized objective/gradient/Hessian-structure callbacks shared
by all three solvers in this subpackage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.intervals import Timeline
from ..core.task import TaskSet
from ..power.models import PolynomialPower

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .interior_point import KernelProfile

__all__ = ["ConvexProblem", "OptimalSolution"]


class ConvexProblem:
    """Flattened convex program for one (task set, m, power model) triple.

    Variables are indexed ``v = 0..k−1``; ``var_task[v]`` and ``var_sub[v]``
    recover the originating ``(i, j)`` pair.
    """

    def __init__(
        self,
        timeline: Timeline,
        m: int,
        power: PolynomialPower,
        min_available: np.ndarray | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.timeline = timeline
        self.m = int(m)
        self.power = power
        cov = timeline.coverage
        ii, jj = np.nonzero(cov)
        self.var_task = ii.astype(np.intp)
        self.var_sub = jj.astype(np.intp)
        self.n_tasks = len(timeline.tasks)
        self.n_subs = len(timeline)
        self.k = len(ii)
        self.lengths = timeline.lengths  # Δ_j per subinterval
        self.var_len = self.lengths[self.var_sub]  # upper bound per variable
        self.caps = self.m * self.lengths  # m·Δ_j per subinterval
        self.works = timeline.tasks.works
        self._c_alpha = power.gamma * np.power(self.works, power.alpha)
        # optional frequency cap: A_i >= min_available_i (= C_i / f_max)
        if min_available is not None:
            min_available = np.asarray(min_available, dtype=np.float64)
            if min_available.shape != (self.n_tasks,):
                raise ValueError("min_available must have one entry per task")
            if np.any(min_available < 0):
                raise ValueError("min_available must be nonnegative")
            if np.any(min_available > timeline.tasks.windows * (1 + 1e-12)):
                raise ValueError(
                    "a min_available exceeds its task's window: the cap is "
                    "infeasible even in isolation"
                )
        self.min_available = min_available

    # -- reshaping helpers ------------------------------------------------------------

    @property
    def tasks(self) -> TaskSet:
        """The scheduled task set."""
        return self.timeline.tasks

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """Inflate a variable vector into the dense ``(n, J)`` matrix."""
        mat = np.zeros((self.n_tasks, self.n_subs))
        mat[self.var_task, self.var_sub] = x
        return mat

    def from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Extract the covered entries of a dense ``(n, J)`` matrix."""
        return np.asarray(mat, dtype=np.float64)[self.var_task, self.var_sub]

    def available_times(self, x: np.ndarray) -> np.ndarray:
        """``A_i = Σ_j x_{i,j}`` per task."""
        return np.bincount(self.var_task, weights=x, minlength=self.n_tasks)

    def column_sums(self, x: np.ndarray) -> np.ndarray:
        """``Σ_i x_{i,j}`` per subinterval."""
        return np.bincount(self.var_sub, weights=x, minlength=self.n_subs)

    # -- structure (exploited by the Newton kernel) -----------------------------------

    @cached_property
    def task_indptr(self) -> np.ndarray:
        """CSR-style boundaries: task ``i``'s variables are ``x[p[i]:p[i+1]]``.

        Variables come out of :func:`numpy.nonzero` in row-major order, so
        each task's variables form one contiguous run of the flat vector.
        """
        spans = np.bincount(self.var_task, minlength=self.n_tasks)
        return np.concatenate([[0], np.cumsum(spans)]).astype(np.intp)

    @cached_property
    def has_contiguous_coverage(self) -> bool:
        """True when every task covers a *contiguous* run of subintervals.

        Guaranteed by construction (a window ``[R_i, D_i]`` covers the
        consecutive subintervals inside it), but verified once so the
        structured Newton kernel can fall back to the dense path instead of
        silently producing a wrong factorization if the invariant is ever
        broken by an exotic problem construction.
        """
        if self.k == 0:
            return False
        dt = np.diff(self.var_task)
        if np.any(dt < 0):
            return False
        # within a task (dt == 0) subinterval indices must step by exactly 1
        return bool(np.all((dt > 0) | (np.diff(self.var_sub) == 1)))

    @cached_property
    def sub_bandwidth(self) -> int:
        """Half-bandwidth of the reduced subinterval system.

        The Schur complement ``S[j, j']`` is nonzero only when some task
        covers both ``j`` and ``j'``; with contiguous coverage that bounds
        ``|j − j'|`` by the widest task span, making ``S`` banded.
        """
        p = self.task_indptr
        nonempty = p[1:] > p[:-1]
        if not nonempty.any():
            return 0
        lo = self.var_sub[p[:-1][nonempty]]
        hi = self.var_sub[p[1:][nonempty] - 1]
        return int((hi - lo).max())

    @cached_property
    def flat_index(self) -> np.ndarray:
        """Flat ``(n_tasks·n_subs)`` scatter index of the covered pairs."""
        return self.var_task * self.n_subs + self.var_sub

    @cached_property
    def sub_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, indptr)`` grouping variables by subinterval.

        ``order[indptr[j]:indptr[j+1]]`` are the variable indices of
        subinterval ``j`` — the per-subinterval gather used by the capped-box
        projection (projected-gradient solver and KKT residuals).
        """
        order = np.argsort(self.var_sub, kind="stable")
        counts = np.bincount(self.var_sub, minlength=self.n_subs)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        return order, indptr

    # -- objective --------------------------------------------------------------------

    def objective(self, x: np.ndarray) -> float:
        """Total energy ``E(x)``; ``inf`` if some ``A_i`` is nonpositive."""
        A = self.available_times(x)
        if np.any(A <= 0):
            return float("inf")
        alpha = self.power.alpha
        return float(
            np.sum(self._c_alpha / np.power(A, alpha - 1.0))
            + self.power.static * A.sum()
        )

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """``∂E/∂x_v = −γ(α−1) C_i^α / A_i^α + p₀`` for ``i = var_task[v]``."""
        A = self.available_times(x)
        alpha = self.power.alpha
        gA = -(alpha - 1.0) * self._c_alpha / np.power(A, alpha) + self.power.static
        return gA[self.var_task]

    def hessian_task_weights(self, x: np.ndarray) -> np.ndarray:
        """Per-task curvature ``h_i = γ α(α−1) C_i^α / A_i^{α+1}``.

        The objective Hessian is ``Σ_i h_i · u_i u_iᵀ`` with ``u_i`` the 0/1
        indicator of task ``i``'s variables — exploited by the interior-point
        solver through the Woodbury identity.
        """
        A = self.available_times(x)
        alpha = self.power.alpha
        return alpha * (alpha - 1.0) * self._c_alpha / np.power(A, alpha + 1.0)

    # -- feasibility ------------------------------------------------------------------

    def feasible_start(self, shrink: float = 0.9) -> np.ndarray:
        """A strictly interior point.

        Uncapped: ``x_v = shrink·Δ_j·min(1, m/n_j)`` — column sums are
        ``shrink·Δ_j·min(n_j, m) < m·Δ_j`` and every variable is strictly
        inside its box, so all barrier terms are finite.

        With a frequency cap (``min_available``), that point may violate
        ``A_i > d_i``; a phase-1 max-flow then realizes the demands with a
        small margin and the result is mixed with the uncapped start to
        restore strict interiority of every other constraint.
        """
        if not (0 < shrink < 1):
            raise ValueError("shrink must be in (0, 1)")
        n_over = self.timeline.overlap_counts[self.var_sub]
        frac = np.minimum(1.0, self.m / n_over)
        base = shrink * self.var_len * frac
        if self.min_available is None:
            return base
        d = self.min_available
        A_base = self.available_times(base)
        if np.all(A_base > d * (1 + 1e-9) + 1e-12):
            return base

        eps = 0.01
        windows = self.timeline.tasks.windows
        if np.any(d > windows / (1 + eps)):
            raise ValueError(
                "frequency cap leaves (almost) no slack for some task; the "
                "strictly feasible region is empty or degenerate"
            )
        from .flow import realize_demands

        target = d * (1 + eps)
        real = realize_demands(self.timeline.tasks, self.m, target)
        if not real.feasible:
            raise ValueError(
                "frequency cap is infeasible (or tight beyond the 1% phase-1 "
                "margin) for this instance — no schedule keeps every "
                "frequency within f_max"
            )
        x_flow = self.from_matrix(real.x)
        delta = eps / (2 * (1 + eps))
        x0 = (1 - delta) * x_flow + delta * base
        # sanity: strict interiority of the capped constraint
        if np.any(self.available_times(x0) <= d):
            raise AssertionError("phase-1 produced a non-interior start (bug)")
        return x0

    def check_feasible(self, x: np.ndarray, tol: float = 1e-7) -> None:
        """Raise when ``x`` violates any constraint beyond ``tol``."""
        if x.shape != (self.k,):
            raise ValueError(f"expected x of shape ({self.k},), got {x.shape}")
        if np.any(x < -tol):
            raise AssertionError("negative execution time")
        if np.any(x - self.var_len > tol * np.maximum(self.var_len, 1.0)):
            raise AssertionError("per-variable cap Δ_j violated")
        col = self.column_sums(x)
        if np.any(col - self.caps > tol * np.maximum(self.caps, 1.0)):
            raise AssertionError("subinterval capacity m·Δ_j violated")
        if self.min_available is not None:
            A = self.available_times(x)
            short = self.min_available - A
            if np.any(short > tol * np.maximum(self.min_available, 1.0)):
                raise AssertionError("frequency-cap constraint A_i >= C_i/f_max violated")

    def clip_feasible(self, x: np.ndarray) -> np.ndarray:
        """Clip tiny constraint violations (post-solve cleanup)."""
        x = np.clip(x, 0.0, self.var_len)
        col = self.column_sums(x)
        over = col > self.caps
        if np.any(over):
            scale = np.ones(self.n_subs)
            scale[over] = self.caps[over] / col[over]
            x = x * scale[self.var_sub]
        return x


@dataclass(frozen=True)
class OptimalSolution:
    """Solver output: optimal times, energy, and diagnostics.

    Attributes
    ----------
    problem:
        The originating program.
    x:
        Optimal variable vector (covered pairs).
    energy:
        Optimal objective value ``E^(O)``.
    iterations:
        Total inner iterations spent.
    solver:
        Short name of the producing solver.
    gap:
        Certified upper bound on suboptimality where available (the
        interior-point duality-gap bound), else ``nan``.
    profile:
        Per-solve :class:`~repro.optimal.interior_point.KernelProfile`
        (Newton kernel used, per-centering iteration counts, factorization
        wall time, warm-start provenance); ``None`` for solvers that do not
        record one.
    """

    problem: ConvexProblem
    x: np.ndarray
    energy: float
    iterations: int
    solver: str
    gap: float = float("nan")
    profile: "KernelProfile | None" = None

    @cached_property
    def available_times(self) -> np.ndarray:
        """``A_i`` at the optimum."""
        return self.problem.available_times(self.x)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Implied per-task frequencies ``C_i / A_i``."""
        return self.problem.works / self.available_times

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``(n, J)`` matrix of optimal execution times."""
        return self.problem.to_matrix(self.x)
