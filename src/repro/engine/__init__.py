"""Unified solver engine: one typed contract over every scheduling frontend.

Every way of producing a schedule in this codebase — the paper's
subinterval pipeline, the online re-planner, the discrete-frequency
practical scheduler, the exact convex solvers, and the EDF/YDS/naive
baselines — is registered here under a stable name and invoked through
one request/response contract:

* :class:`Platform` — frozen platform description (core count, power
  model, optional discrete frequency menu, optional frequency cap);
* :class:`SolveRequest` / :class:`SolveResult` — the typed contract every
  solver consumes and produces (energy, schedule, feasibility, timing);
* :func:`solve` / :func:`solver_names` / :func:`get_solver` — the
  name-keyed registry, with a shared post-solve validation hook that runs
  the simulator's invariant checker over every produced schedule.

The CLI (``repro solve --solver <name>``), the HTTP service, the
experiments runner, and the analysis/sim layers all dispatch through this
module, so a new solver registered here is immediately reachable from
every frontend.  See ``docs/architecture.md`` for the layer diagram and
the "how to add a solver" recipe.
"""

from .contract import Platform, SolveRequest, SolveResult
from .registry import (
    SolverTimeoutError,
    UnknownSolverError,
    get_solver,
    register,
    resolve_name,
    solve,
    solver_catalog,
    solver_names,
)

# importing the adapters populates the registry as a side effect
from . import solvers as _solvers  # noqa: E402,F401

__all__ = [
    "Platform",
    "SolveRequest",
    "SolveResult",
    "SolverTimeoutError",
    "UnknownSolverError",
    "get_solver",
    "register",
    "resolve_name",
    "solve",
    "solver_names",
    "solver_catalog",
]
