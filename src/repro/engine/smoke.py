"""Smoke check: solve one tiny instance with EVERY registered solver.

Run as ``python -m repro.engine.smoke`` (the ``make solvers-smoke``
target).  Enumerates the registry — so a newly-registered solver is
covered with zero changes here — solves one small fixed instance per
solver, and checks the normalized contract: positive energy, a
materialized schedule, a clean validator pass, and no deadline misses.
Exit code 0 means every registered solver held the contract.
"""

from __future__ import annotations

import sys

from ..core.task import TaskSet
from ..smoke import Smoke, main
from . import Platform, SolveRequest, solve, solver_names

#: Small, contention-light instance (never more than m=2 overlapping tasks)
#: so every solver — including the soft-deadline baselines — is feasible.
_TASKS = TaskSet.from_tuples(
    [(0.0, 10.0, 4.0), (2.0, 14.0, 5.0), (11.0, 20.0, 6.0)]
)


def _options(name: str) -> dict:
    if name == "optimal:projected-gradient":
        # FISTA's default 1e-11 tolerance is overkill for a smoke check
        from ..optimal import PGConfig

        return {"config": PGConfig(tol=1e-8, patience=5)}
    return {}


def check(smoke: Smoke) -> None:
    """Solve the fixture with every registered solver."""
    platform = Platform.from_params(m=2, alpha=3.0, static=0.1)
    for name in solver_names():
        request = SolveRequest(tasks=_TASKS, platform=platform)
        try:
            result = solve(name, request, **_options(name))
        except Exception as exc:  # noqa: BLE001 - smoke must report, not die
            smoke.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        problems = []
        if not (result.energy > 0):
            problems.append(f"non-positive energy {result.energy!r}")
        if result.schedule is None:
            problems.append("no schedule materialized")
        if result.violations:
            problems.append(f"{len(result.violations)} validator violations")
        if result.deadline_misses:
            problems.append(f"deadline misses {result.deadline_misses}")
        if not result.feasible:
            problems.append("reported infeasible")
        smoke.check(
            not problems,
            f"{name:28s} kind={result.kind:10s} "
            f"E={result.energy:.6g}  {result.wall_time_s * 1e3:.1f}ms",
            f"{name}: " + "; ".join(problems),
        )


if __name__ == "__main__":
    sys.exit(main("solvers-smoke", check))
