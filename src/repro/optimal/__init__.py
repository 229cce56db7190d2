"""Exact optimal baseline: the convex program of Theorem 1 and its solvers.

:func:`solve_optimal` is the main entry point — it builds the convex
reformulation for a task set and runs the structured interior-point solver,
returning the optimal energy ``E^(O)`` that every figure normalizes against.
"""

from __future__ import annotations

import numpy as np

from ..core.intervals import Timeline
from ..core.schedule import Schedule, Segment
from ..core.task import TaskSet
from ..core.wrap_schedule import Slot, wrap_schedule
from ..power.models import PolynomialPower
from .convex import ConvexProblem, OptimalSolution
from .interior_point import (
    KERNELS,
    CenteringRecord,
    InteriorPointSolver,
    IPConfig,
    KernelProfile,
)
from .flow import DemandRealization, check_demand_feasibility, realize_demands
from .kkt import (
    ActivityReport,
    active_constraints,
    projection_residual,
    verify_optimality,
)
from .maxflow import FlowResult, MaxFlowNetwork
from .projected_gradient import PGConfig, ProjectedGradientSolver, project_columns
from .scipy_solver import solve_with_scipy
from .warm import WarmStart, repair_warm_start

__all__ = [
    "ConvexProblem",
    "OptimalSolution",
    "InteriorPointSolver",
    "IPConfig",
    "KernelProfile",
    "CenteringRecord",
    "KERNELS",
    "ProjectedGradientSolver",
    "PGConfig",
    "project_columns",
    "solve_with_scipy",
    "solve_problem",
    "solve_optimal",
    "solve_optimal_capped",
    "optimal_schedule",
    "projection_residual",
    "verify_optimality",
    "active_constraints",
    "ActivityReport",
    "MaxFlowNetwork",
    "FlowResult",
    "DemandRealization",
    "check_demand_feasibility",
    "realize_demands",
    "WarmStart",
    "repair_warm_start",
]


#: Projected-gradient budget of the ``warm="pg"`` seeding pass: a handful of
#: FISTA iterations land within a percent of the optimum, which is all the
#: continuation needs to start several μ-steps up the path.
_PG_SEED_CONFIG = PGConfig(max_iter=120, tol=1e-9, patience=4)

#: Fraction of the objective the PG seed is assumed to be suboptimal by —
#: deliberately pessimistic, so the implied starting gap is always an upper
#: bound and the barrier certificate stays valid.
_PG_SEED_GAP = 0.05


def solve_problem(
    problem: ConvexProblem,
    solver: str = "interior-point",
    *,
    kernel: str = "auto",
    warm: "WarmStart | str | bool | None" = None,
    **kwargs,
) -> OptimalSolution:
    """Solve one already-built :class:`ConvexProblem` (see :func:`solve_optimal`).

    ``warm`` selects the warm-start source:

    * ``None``/``False`` — cold start;
    * ``"pg"`` — seed from a cheap projected-gradient pass on this problem;
    * a :class:`~repro.optimal.warm.WarmStart` — use the caller's carried
      iterate (e.g. the previous point of a core-count sweep).

    Any other value raises ``ValueError``.  Every usable warm source is
    feasibility-repaired first; an unusable one silently degrades to a cold
    start.  Nothing is kept between calls: the result depends only on
    ``problem`` and the arguments.
    """
    config = kwargs.get("config")
    # the continuation growth factor, for placing warm t0; ``config`` is a
    # PGConfig for the projected-gradient backend, which has no μ
    mu = config.mu if isinstance(config, IPConfig) else IPConfig.mu
    x0: np.ndarray | None = None
    t0: float | None = None
    if isinstance(warm, WarmStart):
        x0 = repair_warm_start(problem, warm.x)
        if x0 is not None:
            # back off two continuation steps from the donor's final t:
            # the repaired iterate is near the donor's optimum, not ours
            t0 = max(1.0, float(warm.t)) / mu**2
    elif warm == "pg":
        if problem.min_available is None and solver != "projected-gradient":
            seed = ProjectedGradientSolver(problem, _PG_SEED_CONFIG).solve()
            x0 = repair_warm_start(problem, seed.x)
            if x0 is not None:
                n_ineq = 2 * problem.k + problem.n_subs
                gap0 = _PG_SEED_GAP * max(abs(seed.energy), 1.0)
                t0 = max(1.0, n_ineq / gap0) / mu
    elif warm not in (None, False):
        raise ValueError(f"unsupported warm source {warm!r}")

    if solver == "interior-point":
        ip = InteriorPointSolver(problem, config, kernel=kernel)
        return ip.solve(x0=x0, t0=t0)
    if solver == "projected-gradient":
        if problem.min_available is not None:
            raise ValueError(
                "the projected-gradient solver does not support the capped "
                "feasible set; use interior-point or a SciPy method"
            )
        return ProjectedGradientSolver(problem, config).solve(x0=x0)
    kwargs.pop("config", None)
    return solve_with_scipy(problem, method=solver, x0=x0, **kwargs)


def solve_optimal(
    tasks: TaskSet,
    m: int,
    power: PolynomialPower,
    solver: str = "interior-point",
    **kwargs,
) -> OptimalSolution:
    """Solve the energy-minimal scheduling problem exactly.

    Parameters
    ----------
    tasks, m, power:
        Instance definition.
    solver:
        ``"interior-point"`` (default, fast structured solver),
        ``"projected-gradient"``, or a SciPy method name (``"SLSQP"`` /
        ``"trust-constr"``).

    Keyword-only ``kernel`` selects the interior-point Newton kernel
    (``"auto"``/``"banded"``/``"schur"``/``"dense"``) and ``warm`` the
    warm-start source (see :func:`solve_problem`).
    """
    timeline = Timeline(tasks)
    problem = ConvexProblem(timeline, m, power)
    return solve_problem(problem, solver, **kwargs)


def solve_optimal_capped(
    tasks: TaskSet,
    m: int,
    power: PolynomialPower,
    f_max: float,
    solver: str = "interior-point",
    **kwargs,
) -> OptimalSolution:
    """Exact optimum under a hard frequency cap ``f ≤ f_max``.

    Adds the per-task constraints ``A_i ≥ C_i / f_max`` to the convex
    program (their barrier shares the objective's task-block structure, so
    the interior-point cost is unchanged).  Raises ``ValueError`` when the
    cap is infeasible for the instance (detected exactly by the phase-1 max
    flow).  The returned solution's ``frequencies = C_i/A_i`` all satisfy
    the cap.  Accepts the same ``kernel``/``warm`` keywords as
    :func:`solve_optimal`.
    """
    if f_max <= 0:
        raise ValueError("f_max must be positive")
    timeline = Timeline(tasks)
    problem = ConvexProblem(
        timeline, m, power, min_available=tasks.works / f_max
    )
    return solve_problem(problem, solver, **kwargs)


def optimal_schedule(solution: OptimalSolution) -> Schedule:
    """Materialize an optimal solution as a concrete collision-free schedule.

    Per Theorem 1's constructive direction: within each subinterval the
    optimal times ``x_{i,j}`` satisfy Algorithm 1's preconditions, so
    McNaughton packing realizes them; each task runs at its single implied
    frequency ``C_i / A_i``.
    """
    p = solution.problem
    timeline = p.timeline
    freq = solution.frequencies
    mat = solution.matrix
    segments: list[Segment] = []
    for sub in timeline:
        if sub.n_overlapping == 0:
            continue
        alloc = {
            tid: float(mat[tid, sub.index])
            for tid in sub.task_ids
            if mat[tid, sub.index] > 1e-12
        }
        if not alloc:
            continue
        if sub.is_heavy(p.m):
            slots = wrap_schedule(sub.start, sub.end, alloc, p.m)
        else:
            slots = [
                Slot(tid, core, sub.start, sub.start + t)
                for core, (tid, t) in enumerate(alloc.items())
            ]
        for s in slots:
            if s.duration > 1e-12:
                segments.append(
                    Segment(s.task_id, s.core, s.start, s.end, float(freq[s.task_id]))
                )
    return Schedule(timeline.tasks, p.m, p.power, segments)
