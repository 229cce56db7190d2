"""From-scratch log-barrier interior-point solver for the convex program.

Theorem 1 of the paper says the reformulated problem is solvable in
polynomial time by the interior-point method; this module *is* that solver,
built directly on the problem structure instead of a generic NLP package:

* **Barrier.** ``φ_t(x) = t·E(x) − Σ_v log x_v − Σ_v log(Δ−x_v) −
  Σ_j log(mΔ_j − Σ_i x_{i,j})`` minimized by damped Newton, with the barrier
  parameter ``t`` increased geometrically (standard path-following; the
  number of inequality constraints over ``t`` certifies the duality gap).

* **Structured Newton step.** The Hessian is ``D + U·diag(a)·Uᵀ +
  V·diag(b)·Vᵀ`` where ``D`` is diagonal (box barriers), ``U`` maps variables
  to their task (objective curvature ``a_i = t·h_i``) and ``V`` maps
  variables to their subinterval (capacity barrier curvature
  ``b_j = 1/s_j²``).  Woodbury reduces the solve to the ``(n+J)×(n+J)``
  system ``M y = Wᵀ D⁻¹ g`` with ``M = diag(1/a, 1/b) + Wᵀ D⁻¹ W`` — and
  because the two blocks of ``W = [U V]`` have disjoint per-variable
  supports, ``M`` is *two diagonal blocks plus a sparse coupling*:

      ``M = [[D₁, C], [Cᵀ, D₂]]``,   ``C[i, j] = 1/d_v`` for covered (i, j).

  The **Schur-complement kernel** eliminates one diagonal block
  analytically, leaving a single SPD system on the other block
  (``D₂ − Cᵀ D₁⁻¹ C`` on subintervals, or ``D₁ − C D₂⁻¹ Cᵀ`` on tasks —
  whichever is smaller).  Each task covers a *contiguous* run of
  subintervals, so the subinterval-side complement is **banded** with
  half-bandwidth equal to the widest task span and factors with
  :func:`scipy.linalg.solveh_banded`; when the band is too wide for that to
  pay off, the reduced system is solved by dense Cholesky instead — still
  an order of magnitude cheaper than the full ``(n+J)`` LU at paper-scale
  sizes.  The original dense solve is kept verbatim as the ``"dense"``
  oracle and as the automatic fallback whenever the structure is degenerate
  (non-contiguous coverage, SciPy unavailable, or a factorization failure).

* **Warm starts.**  :meth:`InteriorPointSolver.solve` accepts a starting
  iterate ``x0`` *and* a starting barrier parameter ``t0``, so a caller
  holding the final iterate of an adjacent solve (previous core count of a
  sweep, a cheap projected-gradient pass) can skip most of the continuation
  path.  :mod:`repro.optimal.warm` provides the feasibility repair that
  makes carried iterates safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import context as obs_context
from .convex import ConvexProblem, OptimalSolution
from .projected_gradient import PGConfig, ProjectedGradientSolver

try:  # SciPy carries the banded/Cholesky/LU factorizations of the kernel
    from scipy.linalg import (
        cho_factor,
        cho_solve,
        cho_solve_banded,
        cholesky_banded,
        lu_factor,
        lu_solve,
    )
    from scipy.linalg.blas import dsyrk

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is present in CI
    _HAVE_SCIPY = False

__all__ = [
    "CenteringRecord",
    "InteriorPointSolver",
    "IPConfig",
    "KernelProfile",
    "KERNELS",
]

#: Selectable Newton kernels: ``auto`` picks by cost model, ``banded`` and
#: ``schur`` force the structured paths, ``dense`` is the original oracle.
KERNELS = ("auto", "banded", "schur", "dense")

#: λ² below which the damped Newton phase ends and full steps are taken
#: (checked for strict feasibility only).  Inside this region the barrier is
#: self-concordant enough for undamped quadratic convergence, and skipping
#: the Armijo test matters: at large ``t`` the barrier value ``φ ≈ t·E`` is
#: so large that its double-precision noise swamps the ``αλ²`` decrease the
#: test looks for, stalling the line search on pure rounding error.
_FULL_STEP_LAM2 = 0.09

#: Stall detector of a centering step: λ² failing to improve on its running
#: best by at least 10% this many consecutive iterations means the iterate
#: has reached the kernel's numerical noise floor at this ``t`` — further
#: Newton steps only jitter, so centering stops there.
_STALL_LIMIT = 3


@dataclass(frozen=True)
class IPConfig:
    """Tunables of the barrier method (defaults fine for all paper sizes)."""

    t_init: float = 1.0
    mu: float = 20.0  # barrier parameter growth factor
    gap_tol: float = 1e-9  # relative duality-gap target
    newton_tol: float = 1e-10  # λ²/2 threshold per centering step
    max_newton: int = 80  # Newton iterations per centering step
    max_outer: int = 60  # barrier continuation steps
    armijo: float = 0.25
    backtrack: float = 0.5
    #: FISTA iteration budget of the projected-gradient polish that runs on
    #: the final barrier iterate (0 disables).  The barrier's centering
    #: precision hits a float64 wall once ``t`` drives active slacks below
    #: the rounding noise of the capacity sums; the polish works on the raw
    #: objective with exact feasible-set projections instead, so it is
    #: immune to that wall and lands every kernel/start on the same optimum
    #: to near machine precision.  The barrier iterate is already within
    #: ~1e-8 relative of the optimum, yet at the paper's size (n=20, m=4)
    #: the polish is most of the solve: 87% and 93% of the median exact
    #: solve in two traced perfbench serve-cold runs on a 2-CPU host.
    polish: int = 250


@dataclass(frozen=True)
class CenteringRecord:
    """State after one centering step of the barrier method.

    ``newton_iterations`` is cumulative across the path;
    ``newton_steps`` is this centering step's own count, and
    ``factor_time_s`` the cumulative wall time spent in the Newton
    kernel's linear solves so far.
    """

    t: float
    gap: float
    objective: float
    newton_iterations: int
    newton_steps: int
    factor_time_s: float


@dataclass(frozen=True)
class KernelProfile:
    """Per-solve diagnostics of the Newton kernel (``repro solve --profile``).

    Attributes
    ----------
    kernel:
        Kernel that actually ran: ``"banded"``, ``"schur"``, or ``"dense"``.
    reduced:
        Which block the Schur complement kept: ``"task"``, ``"subinterval"``,
        or ``"-"`` for the dense oracle.
    bandwidth:
        Half-bandwidth of the subinterval-side complement (structure
        property, reported even when the dense path runs).
    centers:
        One :class:`CenteringRecord` per centering step, in order — the
        solve's progress record, mirrored onto the trace as ``ip.center``
        span events.
    warm_started:
        True when the solve started from a caller-provided iterate.
    t_start:
        Barrier parameter the continuation actually started at.
    dense_fallbacks:
        Newton steps where the structured factorization failed and the
        dense oracle stepped in.
    t_certified:
        Largest barrier parameter whose centering genuinely converged
        (``λ`` small at exit) — the float64 centering wall for this
        instance.  Warm starts resume below it; ``NaN`` when no centering
        converged.
    polish_iters:
        FISTA iterations spent by the projected-gradient polish (0 when
        disabled or inapplicable).
    """

    kernel: str
    reduced: str
    bandwidth: int
    centers: tuple[CenteringRecord, ...]
    warm_started: bool
    t_start: float
    dense_fallbacks: int = 0
    t_certified: float = float("nan")
    polish_iters: int = 0

    @property
    def newton_per_center(self) -> tuple[int, ...]:
        """Newton iterations spent in each centering step, in order."""
        return tuple(r.newton_steps for r in self.centers)

    @property
    def total_newton(self) -> int:
        """Total Newton iterations across the continuation path."""
        return int(sum(self.newton_per_center))

    @property
    def factor_time_s(self) -> float:
        """Cumulative wall time inside the Newton linear-system solves.

        Assembly, factorization and triangular solves, across all Newton
        iterations of the path.
        """
        return self.centers[-1].factor_time_s if self.centers else 0.0


class InteriorPointSolver:
    """Path-following barrier solver bound to one :class:`ConvexProblem`.

    Parameters
    ----------
    problem:
        The flattened convex program.
    config:
        Barrier tunables (:class:`IPConfig`).
    kernel:
        ``"auto"`` (default) picks the cheapest Newton kernel from the
        problem's structure; ``"banded"``/``"schur"`` force the structured
        paths (still falling back to dense when the structure cannot
        support them); ``"dense"`` forces the original full solve — the
        bit-stable oracle the structured kernels are tested against.
    """

    def __init__(
        self,
        problem: ConvexProblem,
        config: IPConfig | None = None,
        kernel: str = "auto",
    ):
        self.p = problem
        self.cfg = config or IPConfig()
        # number of inequality constraints: 2 per variable + 1 per subinterval
        # (+ 1 per capped task when a frequency cap is present)
        self.n_ineq = 2 * problem.k + problem.n_subs
        if problem.min_available is not None:
            self._capped = problem.min_available > 0
            self.n_ineq += int(self._capped.sum())
        else:
            self._capped = None
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.kernel, self._reduced_side = self._resolve_kernel(kernel)

    # -- kernel selection ---------------------------------------------------------

    def _resolve_kernel(self, kernel: str) -> tuple[str, str]:
        """Map the requested kernel onto what the structure supports."""
        p = self.p
        if kernel == "dense" or not _HAVE_SCIPY or not p.has_contiguous_coverage:
            return "dense", "-"
        n, J = p.n_tasks, p.n_subs
        bw = p.sub_bandwidth
        if kernel == "banded":
            return "banded", "subinterval"
        side = "task" if n <= J else "subinterval"
        if kernel == "schur":
            return "schur", side
        # auto: banded beats the dense Schur factorization when the band is
        # narrow.  Cost model: pbtrf ~ J(bw+1)² plus the per-offset band
        # assembly ~ bw·k, vs syrk+potrf ~ s²·b + s³/3 with s = min(n, J),
        # b = max(n, J).  The dense path runs entirely inside BLAS-3, which
        # sustains an order of magnitude more flops per second than the
        # banded factorization interleaved with numpy band assembly — the
        # /12 discount is calibrated against measured per-step times, and
        # still leaves banded the winner on long-horizon narrow-band
        # instances (large J, small overlap span).
        small, big = (n, J) if n <= J else (J, n)
        banded_cost = 4.0 * J * (bw + 1) ** 2 + 8.0 * bw * p.k
        schur_cost = (small * small * big + small**3 / 3.0) / 12.0
        if banded_cost < schur_cost:
            return "banded", "subinterval"
        return "schur", side

    # -- barrier pieces -----------------------------------------------------------

    def _slacks(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s_lo = x
        s_hi = self.p.var_len - x
        s_cap = self.p.caps - self.p.column_sums(x)
        return s_lo, s_hi, s_cap

    def _task_slacks(self, x: np.ndarray) -> np.ndarray | None:
        """Per-task slack ``A_i − d_i`` of the frequency-cap constraint."""
        if self._capped is None:
            return None
        return self.p.available_times(x) - self.p.min_available

    def _phi(self, x: np.ndarray, t: float) -> float:
        s_lo, s_hi, s_cap = self._slacks(x)
        if np.any(s_lo <= 0) or np.any(s_hi <= 0) or np.any(s_cap <= 0):
            return float("inf")
        obj = self.p.objective(x)
        if not np.isfinite(obj):
            return float("inf")
        phi = (
            t * obj
            - float(np.log(s_lo).sum())
            - float(np.log(s_hi).sum())
            - float(np.log(s_cap).sum())
        )
        s_task = self._task_slacks(x)
        if s_task is not None:
            active = s_task[self._capped]
            if np.any(active <= 0):
                return float("inf")
            phi -= float(np.log(active).sum())
        return phi

    def _grad_phi(self, x: np.ndarray, t: float) -> np.ndarray:
        s_lo, s_hi, s_cap = self._slacks(x)
        g = t * self.p.gradient(x)
        g -= 1.0 / s_lo
        g += 1.0 / s_hi
        g += (1.0 / s_cap)[self.p.var_sub]
        s_task = self._task_slacks(x)
        if s_task is not None:
            contrib = np.where(self._capped, -1.0 / np.maximum(s_task, 1e-300), 0.0)
            g += contrib[self.p.var_task]
        return g

    def _curvatures(
        self, x: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(g, dinv, a, b)`` — gradient and the three Hessian factors."""
        p = self.p
        s_lo, s_hi, s_cap = self._slacks(x)
        g = self._grad_phi(x, t)
        d = 1.0 / s_lo**2 + 1.0 / s_hi**2  # diagonal part
        a = t * p.hessian_task_weights(x)  # task-coupled curvature (n,)
        s_task = self._task_slacks(x)
        if s_task is not None:
            # the cap barrier's Hessian is Σ (1/s_task²)·u_i u_iᵀ — the same
            # task-block structure as the objective, so it folds into `a`
            a = a + np.where(self._capped, 1.0 / np.maximum(s_task, 1e-300) ** 2, 0.0)
        b = 1.0 / s_cap**2  # subinterval-coupled curvature (J,)
        return g, 1.0 / d, a, b

    # -- Newton kernels -----------------------------------------------------------

    def _decrement(
        self, dx: np.ndarray, dinv: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> float:
        """Newton decrement ``λ² = Δxᵀ H Δx`` in cancellation-free form.

        The equivalent ``−g·Δx`` is a difference of two huge near-equal
        numbers once ``t`` is large (slacks ~1/t, gradients ~t), and its
        rounding error grows past the termination threshold — it even goes
        negative.  Expanding through the Hessian factors gives a sum of
        nonnegative terms instead, so the decrement stays a trustworthy
        progress measure all the way to the numerical floor.
        """
        p = self.p
        udx = np.bincount(p.var_task, weights=dx, minlength=p.n_tasks)
        vdx = np.bincount(p.var_sub, weights=dx, minlength=p.n_subs)
        return float(dx @ (dx / dinv) + a @ udx**2 + b @ vdx**2)

    def _newton_step(
        self, x: np.ndarray, t: float
    ) -> tuple[np.ndarray, float, bool]:
        """Return ``(Δx, λ², fell_back)`` for the configured kernel.

        ``fell_back`` is True when the structured factorization failed and
        the dense oracle stepped in for this step.
        """
        if self.kernel == "dense":
            return (*self._newton_step_dense(x, t), False)
        try:
            return (*self._newton_step_structured(x, t), False)
        except np.linalg.LinAlgError:
            return (*self._newton_step_dense(x, t), True)

    def _finish_step(
        self,
        g: np.ndarray,
        dinv: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        solve_reduced,
    ) -> tuple[np.ndarray, float]:
        """Recover ``Δx`` from a reduced-system solver, with one refinement.

        ``solve_reduced(r1, r2)`` returns the Woodbury auxiliaries
        ``(y1, y2)`` for an arbitrary split right-hand side, reusing one
        factorization.  A single iterative-refinement pass — apply ``H`` to
        the candidate step (cheap, ``O(k)``, cancellation only at the
        residual level), re-solve for the defect — recovers most of the
        precision the reduction's subtractive right-hand sides lose once
        ``t`` drives the barrier curvatures far apart.
        """
        p = self.p

        def apply_hinv(w: np.ndarray) -> np.ndarray:
            dgw = dinv * w
            y1, y2 = solve_reduced(
                np.bincount(p.var_task, weights=dgw, minlength=p.n_tasks),
                np.bincount(p.var_sub, weights=dgw, minlength=p.n_subs),
            )
            return dgw - dinv * (y1[p.var_task] + y2[p.var_sub])

        dx = -apply_hinv(g)
        udx = np.bincount(p.var_task, weights=dx, minlength=p.n_tasks)
        vdx = np.bincount(p.var_sub, weights=dx, minlength=p.n_subs)
        residual = -g - (dx / dinv + (a * udx)[p.var_task] + (b * vdx)[p.var_sub])
        dx = dx + apply_hinv(residual)
        return dx, self._decrement(dx, dinv, a, b)

    def _newton_step_dense(self, x: np.ndarray, t: float) -> tuple[np.ndarray, float]:
        """The original Woodbury solve on the full ``(n+J)`` system (oracle)."""
        p = self.p
        g, dinv, a, b = self._curvatures(x, t)

        # W = [U V]; M = S^{-1} + W^T D^{-1} W, with disjoint supports making
        # the diagonal blocks diagonal and the cross block the coverage map.
        n, J = p.n_tasks, p.n_subs
        ut_dinv_u = np.bincount(p.var_task, weights=dinv, minlength=n)
        vt_dinv_v = np.bincount(p.var_sub, weights=dinv, minlength=J)
        M = np.zeros((n + J, n + J))
        M[np.arange(n), np.arange(n)] = 1.0 / a + ut_dinv_u
        M[n + np.arange(J), n + np.arange(J)] = 1.0 / b + vt_dinv_v
        # cross terms: for each variable v, D^{-1}_v links task i and sub j
        np.add.at(M, (p.var_task, n + p.var_sub), dinv)
        M[n:, :n] = M[:n, n:].T

        if _HAVE_SCIPY:
            factor = lu_factor(M, check_finite=False)

            def solve_m(rhs: np.ndarray) -> np.ndarray:
                y = lu_solve(factor, rhs, check_finite=False)
                if not np.all(np.isfinite(y)):  # singular M: LU gave inf/nan
                    y = np.linalg.lstsq(M, rhs, rcond=None)[0]
                return y

        else:  # pragma: no cover - scipy is present in CI

            def solve_m(rhs: np.ndarray) -> np.ndarray:
                try:
                    return np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    return np.linalg.lstsq(M, rhs, rcond=None)[0]

        def solve_reduced(r1: np.ndarray, r2: np.ndarray):
            y = solve_m(np.concatenate([r1, r2]))
            return y[:n], y[n:]

        return self._finish_step(g, dinv, a, b, solve_reduced)

    def _newton_step_structured(
        self, x: np.ndarray, t: float
    ) -> tuple[np.ndarray, float]:
        """Schur-complement solve: eliminate one diagonal block analytically.

        With ``M = [[D₁, C], [Cᵀ, D₂]]`` (both diagonal blocks diagonal),
        eliminating the task block leaves ``(D₂ − Cᵀ D₁⁻¹ C) y₂ = r₂ −
        Cᵀ D₁⁻¹ r₁`` on subintervals — banded, because contiguous coverage
        bounds the coupling distance — and eliminating the subinterval block
        leaves the (usually smaller) dense SPD task system.  Either way the
        eliminated block is recovered by one diagonal solve.

        The complements' diagonals are assembled in the cancellation-free
        form ``S[jj] = 1/b_j + Σ_v d⁻¹_v · (1/a_i + Σ_{u≠v} d⁻¹_u) / D₁_i``
        (every term nonnegative): the naive ``D₂ − ΣC²/D₁`` difference
        wipes out the barrier curvatures once ``t`` is large — a task block
        dominated by a single variable cancels to rounding noise — which is
        exactly what used to stop the continuation from centering at tight
        duality gaps.
        """
        p = self.p
        g, dinv, a, b = self._curvatures(x, t)
        n, J = p.n_tasks, p.n_subs
        inv_a, inv_b = 1.0 / a, 1.0 / b
        sigma = np.bincount(p.var_task, weights=dinv, minlength=n)
        colsum = np.bincount(p.var_sub, weights=dinv, minlength=J)
        D1 = inv_a + sigma
        D2 = inv_b + colsum

        if self.kernel == "banded":
            # stable diagonal of D₂ − CᵀD₁⁻¹C (see class docstring)
            numer = inv_a[p.var_task] + (sigma[p.var_task] - dinv)
            sdiag = inv_b + np.bincount(
                p.var_sub, weights=dinv * numer / D1[p.var_task], minlength=J
            )
            ab = self._assemble_band(dinv, D1, sdiag)
            band_factor = cholesky_banded(ab, lower=False, check_finite=False)

            def solve_reduced(r1: np.ndarray, r2: np.ndarray):
                rhs = r2 - np.bincount(
                    p.var_sub, weights=dinv * (r1 / D1)[p.var_task], minlength=J
                )
                y2 = cho_solve_banded(
                    (band_factor, False), rhs, check_finite=False
                )
                y1 = (
                    r1
                    - np.bincount(
                        p.var_task, weights=dinv * y2[p.var_sub], minlength=n
                    )
                ) / D1
                return y1, y2

        elif self._reduced_side == "task":
            G = np.zeros((n, J))
            G.ravel()[p.flat_index] = dinv / np.sqrt(D2)[p.var_sub]
            S = dsyrk(-1.0, G, trans=0, lower=1)  # lower triangle of −G·Gᵀ
            numer = inv_b[p.var_sub] + (colsum[p.var_sub] - dinv)
            S[np.arange(n), np.arange(n)] = inv_a + np.bincount(
                p.var_task, weights=dinv * numer / D2[p.var_sub], minlength=n
            )
            factor = cho_factor(S, lower=True, overwrite_a=True, check_finite=False)

            def solve_reduced(r1: np.ndarray, r2: np.ndarray):
                rhs = r1 - np.bincount(
                    p.var_task, weights=dinv * (r2 / D2)[p.var_sub], minlength=n
                )
                y1 = cho_solve(factor, rhs, check_finite=False)
                y2 = (
                    r2
                    - np.bincount(
                        p.var_sub, weights=dinv * y1[p.var_task], minlength=J
                    )
                ) / D2
                return y1, y2

        else:  # schur on the subinterval side
            G = np.zeros((n, J))
            G.ravel()[p.flat_index] = dinv / np.sqrt(D1)[p.var_task]
            S = dsyrk(-1.0, G, trans=1, lower=1)  # lower triangle of −Gᵀ·G
            numer = inv_a[p.var_task] + (sigma[p.var_task] - dinv)
            S[np.arange(J), np.arange(J)] = inv_b + np.bincount(
                p.var_sub, weights=dinv * numer / D1[p.var_task], minlength=J
            )
            factor = cho_factor(S, lower=True, overwrite_a=True, check_finite=False)

            def solve_reduced(r1: np.ndarray, r2: np.ndarray):
                rhs = r2 - np.bincount(
                    p.var_sub, weights=dinv * (r1 / D1)[p.var_task], minlength=J
                )
                y2 = cho_solve(factor, rhs, check_finite=False)
                y1 = (
                    r1
                    - np.bincount(
                        p.var_task, weights=dinv * y2[p.var_sub], minlength=n
                    )
                ) / D1
                return y1, y2

        return self._finish_step(g, dinv, a, b, solve_reduced)

    def _assemble_band(
        self, dinv: np.ndarray, D1: np.ndarray, sdiag: np.ndarray
    ) -> np.ndarray:
        """Upper-form band of ``D₂ − Cᵀ D₁⁻¹ C`` for banded Cholesky.

        Contiguous coverage means variable ``v`` and ``v + δ`` of the same
        task sit exactly ``δ`` subintervals apart, so the offset-``δ``
        diagonal of the complement is one masked shifted product of the
        per-variable coupling values — ``O(k)`` per offset, ``O(k·bw)``
        total, no scatter into a dense matrix.  The main diagonal is the
        precomputed cancellation-free ``sdiag``; off-diagonals are single
        sign-definite products, safe to accumulate directly.
        """
        p = self.p
        J = p.n_subs
        bw = p.sub_bandwidth
        ab = np.zeros((bw + 1, J))
        ab[bw] = sdiag
        c = dinv  # C's nonzeros, one per covered pair
        w = c * (1.0 / D1)[p.var_task]  # c_v / D₁(task of v)
        vt, vs = p.var_task, p.var_sub
        for delta in range(1, bw + 1):
            same = vt[:-delta] == vt[delta:]
            if not same.any():
                break
            prod = (w[:-delta] * c[delta:])[same]
            # upper form: entry S[j, j+δ] lands at ab[bw−δ, j+δ]
            ab[bw - delta] -= np.bincount(
                vs[delta:][same], weights=prod, minlength=J
            )
        return ab

    # -- main loop -----------------------------------------------------------------

    def solve(
        self, x0: np.ndarray | None = None, t0: float | None = None
    ) -> OptimalSolution:
        """Run the barrier method to the configured duality gap.

        ``x0`` must be strictly feasible when given (see
        :func:`repro.optimal.warm.repair_warm_start` for making a carried
        iterate so); ``t0`` restarts the continuation at a larger barrier
        parameter, skipping the outer steps an adjacent solve already paid
        for.  Warm starts change the path, never the certificate: the loop
        still runs until the same relative duality-gap bound holds.

        Each centering step is recorded once, as a :class:`CenteringRecord`
        in the returned profile's ``centers``; when a trace is active the
        same record also lands on the enclosing span as an ``ip.center``
        event (one contextvar read when tracing is off).
        """
        p, cfg = self.p, self.cfg
        warm = x0 is not None
        x = p.feasible_start() if x0 is None else np.array(x0, dtype=np.float64)
        s_lo, s_hi, s_cap = self._slacks(x)
        if np.any(s_lo <= 0) or np.any(s_hi <= 0) or np.any(s_cap <= 0):
            raise ValueError("x0 is not strictly feasible")
        s_task = self._task_slacks(x)
        if s_task is not None and np.any(s_task[self._capped] <= 0):
            raise ValueError("x0 is not strictly feasible (frequency cap)")

        t = cfg.t_init if t0 is None else max(float(t0), cfg.t_init)
        t_start = t
        t_certified = float("nan")
        total_iters = 0
        factor_time = 0.0
        fallbacks = 0
        centers: list[CenteringRecord] = []
        gap = self.n_ineq / t
        for _outer in range(cfg.max_outer):
            # center at this t
            steps = 0
            best_lam2 = float("inf")
            stalls = 0
            lam2 = float("inf")
            for _ in range(cfg.max_newton):
                t_step = time.perf_counter()
                dx, lam2, fell_back = self._newton_step(x, t)
                factor_time += time.perf_counter() - t_step
                fallbacks += fell_back
                total_iters += 1
                steps += 1
                if lam2 / 2.0 <= cfg.newton_tol:
                    break
                if lam2 <= _FULL_STEP_LAM2:
                    # λ² bottoming out inside the quadratic region means the
                    # kernel's numerical floor at this t, not lack of
                    # centering effort — stop cleanly
                    if lam2 >= 0.9 * best_lam2:
                        stalls += 1
                        if stalls >= _STALL_LIMIT:
                            break
                    else:
                        stalls = 0
                    best_lam2 = min(best_lam2, lam2)
                    # quadratic phase: full step, feasibility check only
                    cand = x + dx
                    if np.isfinite(self._phi(cand, t)):
                        x = cand
                        continue
                # damped phase: backtracking line search keeping strict
                # feasibility; the directional derivative g·Δx equals −λ²
                # (computed inside the Newton step), so no extra gradient
                step = 1.0
                phi0 = self._phi(x, t)
                slope = -lam2
                while step > 1e-14:
                    cand = x + step * dx
                    phi1 = self._phi(cand, t)
                    if np.isfinite(phi1) and phi1 <= phi0 + cfg.armijo * step * slope:
                        break
                    step *= cfg.backtrack
                else:
                    break  # no progress possible; centering stalls
                x = x + step * dx
                # past the float64 centering wall, accepted steps decrease φ
                # by rounding noise instead of the self-concordant guarantee
                # λ − log(1+λ) — detect that and stop burning iterations
                lam = np.sqrt(lam2)
                if phi0 - phi1 < 0.05 * (lam - np.log1p(lam)):
                    stalls += 1
                    if stalls >= _STALL_LIMIT:
                        break
                else:
                    stalls = 0

            if lam2 <= _FULL_STEP_LAM2:
                t_certified = t
            gap = self.n_ineq / t
            obj = p.objective(x)
            rec = CenteringRecord(
                float(t), float(gap), float(obj), total_iters, steps, factor_time
            )
            centers.append(rec)
            obs_context.add_event(
                "ip.center",
                t=rec.t,
                gap=rec.gap,
                objective=rec.objective,
                newton=rec.newton_steps,
                newton_iterations=rec.newton_iterations,
                factor_time_s=rec.factor_time_s,
            )
            if gap <= cfg.gap_tol * max(abs(obj), 1.0):
                break
            t *= cfg.mu

        # projected-gradient polish: exact-projection descent on the raw
        # objective, immune to the barrier's float64 centering wall — lands
        # every kernel and warm/cold start on the same optimum (the PG
        # solver does not support the frequency-capped feasible set)
        polish_iters = 0
        if cfg.polish > 0 and p.min_available is None:
            polished = ProjectedGradientSolver(
                p, PGConfig(max_iter=cfg.polish, tol=1e-14, patience=40)
            ).solve(x0=x)
            if polished.energy <= p.objective(x):
                x = polished.x
                polish_iters = polished.iterations

        profile = KernelProfile(
            kernel=self.kernel,
            reduced=self._reduced_side,
            bandwidth=p.sub_bandwidth if p.k else 0,
            centers=tuple(centers),
            warm_started=warm,
            t_start=t_start,
            dense_fallbacks=fallbacks,
            t_certified=t_certified,
            polish_iters=polish_iters,
        )
        x = p.clip_feasible(x)
        return OptimalSolution(
            problem=p,
            x=x,
            energy=p.objective(x),
            iterations=total_iters,
            solver="interior-point",
            gap=float(gap),
            profile=profile,
        )
