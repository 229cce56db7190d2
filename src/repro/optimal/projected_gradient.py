"""Accelerated projected-gradient cross-check solver.

An independent second opinion on the convex program (used by the test-suite
to validate the interior-point solver): FISTA with backtracking line search
and adaptive restart.  The feasible set is a product over subintervals of
*capped boxes* ``{0 ≤ x ≤ Δ_j, Σ_i x_i ≤ m·Δ_j}``, whose Euclidean
projection decomposes per subinterval and reduces to a 1-D monotone
root-find on the simplex-style threshold ``θ``: project ``clip(y − θ, 0, Δ)``
and pick ``θ ≥ 0`` so the sum meets the cap (``θ = 0`` if the clipped point
is already inside).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import ConvexProblem, OptimalSolution

__all__ = ["ProjectedGradientSolver", "PGConfig", "project_columns"]


def project_columns(problem: ConvexProblem, y: np.ndarray) -> np.ndarray:
    """Project ``y`` onto the program's feasible set (all subintervals at once).

    Every variable is clipped into its box in one vectorized pass; the
    threshold solve runs only for the subintervals whose clipped column sum
    exceeds the capacity cap.  For those, all thresholds are found
    *simultaneously* by a safeguarded Newton iteration on
    ``s(θ) = Σ clip(y − θ, 0, Δ)``: the map is piecewise linear and
    nonincreasing with slope ``−active(θ)`` (the count of members strictly
    between their bounds), so a Newton step lands exactly on the root as
    soon as it enters the root's linear piece — typically within a handful
    of rounds, each one clip plus two segmented sums.  A bisection bracket
    backstops plateau segments (``active = 0``).  Near the optimum most
    capacity constraints are active, so this path is hot for both FISTA
    and the interior-point polish.
    """
    p = problem
    out = np.clip(y, 0.0, p.var_len)
    col = np.bincount(p.var_sub, weights=out, minlength=p.n_subs)
    over = np.flatnonzero(col > p.caps + 1e-15 * np.maximum(p.caps, 1.0))
    if not over.size:
        return out

    # gather the member variables of every over-cap column (contiguous runs
    # of `order`)
    order, indptr = p.sub_groups
    counts = (indptr[over + 1] - indptr[over]).astype(np.intp)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
    pos = np.repeat(indptr[over] - starts, counts) + np.arange(counts.sum())
    idx = order[pos]
    seg = np.repeat(np.arange(over.size), counts)
    yo, uo = y[idx], p.var_len[idx]
    caps = p.caps[over]

    yo0, uo0, seg0 = yo, uo, seg
    theta_out = np.empty(over.size)
    segids = np.arange(over.size)
    lo = np.zeros(over.size)                    # s(lo) > cap (over-cap)
    hi = np.maximum.reduceat(yo, starts)        # s(hi) = 0 ≤ cap
    theta = lo.copy()
    tol = 1e-14 * np.maximum(caps, 1.0)
    for _ in range(60):
        x = yo - theta[seg]
        inside = (x > 0.0) & (x < uo)
        s = np.add.reduceat(np.clip(x, 0.0, uo), starts)
        resid = s - caps
        gt = resid > 0.0
        hi = np.where(gt, hi, theta)            # hi stays feasible (s ≤ cap)
        done = (np.abs(resid) <= tol) | (hi - lo <= 1e-15 * np.maximum(hi, 1.0))
        if np.any(done):
            # converged segments leave the working set; a collapsed bracket
            # reports hi, the tightest feasible threshold it saw
            theta_out[segids[done]] = np.where(
                np.abs(resid[done]) <= tol[done], theta[done], hi[done]
            )
            if np.all(done):
                break
            live = ~done
            member_live = live[seg]
            yo, uo = yo[member_live], uo[member_live]
            counts = counts[live]
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
            seg = np.repeat(np.arange(counts.size), counts)
            segids, caps, tol = segids[live], caps[live], tol[live]
            lo, hi, theta = lo[live], hi[live], theta[live]
            resid, gt = resid[live], gt[live]
            inside = inside[member_live]
        lo = np.where(gt, theta, lo)
        act = np.add.reduceat(inside.astype(np.float64), starts)
        step = np.divide(resid, act, out=np.zeros_like(act), where=act > 0.0)
        cand = theta + step
        theta = np.where(
            (act > 0.0) & (cand > lo) & (cand < hi), cand, 0.5 * (lo + hi)
        )
    else:
        theta_out[segids] = hi
    out[idx] = np.clip(yo0 - theta_out[seg0], 0.0, uo0)
    return out


@dataclass(frozen=True)
class PGConfig:
    """FISTA tunables."""

    max_iter: int = 20000
    tol: float = 1e-11  # relative objective-change stopping criterion
    patience: int = 20  # consecutive small-change iterations before stopping
    l0: float = 1.0  # initial Lipschitz estimate
    eta: float = 2.0  # backtracking growth factor


class ProjectedGradientSolver:
    """FISTA over the convex program, projecting per subinterval."""

    def __init__(self, problem: ConvexProblem, config: PGConfig | None = None):
        self.p = problem
        self.cfg = config or PGConfig()

    def solve(self, x0: np.ndarray | None = None) -> OptimalSolution:
        """Run FISTA; returns the best feasible iterate found.

        A step that does not lower the objective restarts the momentum, so
        the next step is the plain projected-gradient step from the
        incumbent; when that one does not lower the objective either, the
        incumbent is stationary and the loop ends.  ``max_iter`` and the
        ``tol``/``patience`` small-change rule stay as safety nets.
        """
        p, cfg = self.p, self.cfg
        x = p.feasible_start() if x0 is None else np.array(x0, dtype=np.float64)
        z = x.copy()
        t_mom = 1.0
        L = cfg.l0
        fx = p.objective(x)
        small_steps = 0
        restarted = False
        iters = 0
        for iters in range(1, cfg.max_iter + 1):
            g = p.gradient(z)
            fz = p.objective(z)
            # backtracking on the proximal upper bound at z
            while True:
                cand = project_columns(p, z - g / L)
                diff = cand - z
                quad = fz + float(g @ diff) + 0.5 * L * float(diff @ diff)
                f_cand = p.objective(cand)
                if f_cand <= quad + 1e-12 * max(abs(quad), 1.0) or L > 1e18:
                    break
                L *= cfg.eta
            # adaptive restart (function-value based); a second refusal in a
            # row came from the incumbent itself, which is then stationary
            if f_cand >= fx:
                if restarted:
                    break
                restarted = True
                z = x.copy()
                t_mom = 1.0
                L /= cfg.eta  # relax L a bit after restart
                continue
            restarted = False
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            z = cand + ((t_mom - 1.0) / t_next) * (cand - x)
            rel_change = abs(fx - f_cand) / max(abs(fx), 1.0)
            x, fx, t_mom = cand, f_cand, t_next
            if rel_change < cfg.tol:
                small_steps += 1
                if small_steps >= cfg.patience:
                    break
            else:
                small_steps = 0

        x = p.clip_feasible(x)
        return OptimalSolution(
            problem=p,
            x=x,
            energy=p.objective(x),
            iterations=iters,
            solver="projected-gradient",
        )
