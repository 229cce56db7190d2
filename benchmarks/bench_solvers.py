"""Ablation: the three optimal solvers on one instance (speed + agreement).

DESIGN.md calls out the structured interior-point solver as the reason the
Monte-Carlo sweeps are tractable; this benchmark quantifies it against the
projected-gradient and SciPy alternatives.
"""

import numpy as np
import pytest

from repro.core import Timeline
from repro.optimal import (
    ConvexProblem,
    InteriorPointSolver,
    ProjectedGradientSolver,
    solve_with_scipy,
)
from repro.power import PolynomialPower
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=20))
    return ConvexProblem(
        Timeline(tasks), 4, PolynomialPower(alpha=3.0, static=0.1)
    )


@pytest.fixture(scope="module")
def reference_energy(problem):
    return InteriorPointSolver(problem).solve().energy


def test_interior_point(benchmark, problem, reference_energy):
    sol = benchmark.pedantic(
        lambda: InteriorPointSolver(problem).solve(), rounds=3, iterations=1
    )
    assert sol.energy == pytest.approx(reference_energy, rel=1e-6)


@pytest.mark.parametrize("kernel", ["banded", "schur"])
def test_interior_point_kernel(benchmark, problem, reference_energy, kernel):
    """The structured Newton kernels against the dense oracle above."""
    sol = benchmark.pedantic(
        lambda: InteriorPointSolver(problem, kernel=kernel).solve(),
        rounds=3,
        iterations=1,
    )
    assert sol.energy == pytest.approx(reference_energy, rel=1e-9)


def test_interior_point_warm(benchmark, problem, reference_energy):
    """A warm re-solve from the final iterate of an identical solve."""
    from repro.optimal import WarmStart, solve_problem

    cold = solve_problem(problem)
    carried = WarmStart(x=cold.x, t=cold.profile.t_certified)

    sol = benchmark.pedantic(
        lambda: solve_problem(problem, warm=carried), rounds=3, iterations=1
    )
    assert sol.profile.warm_started
    assert sol.energy == pytest.approx(reference_energy, rel=1e-9)


def test_projected_gradient(benchmark, problem, reference_energy):
    sol = benchmark.pedantic(
        lambda: ProjectedGradientSolver(problem).solve(), rounds=1, iterations=1
    )
    assert sol.energy == pytest.approx(reference_energy, rel=1e-3)


def test_scipy_slsqp(benchmark, problem, reference_energy):
    sol = benchmark.pedantic(
        lambda: solve_with_scipy(problem, method="SLSQP"), rounds=1, iterations=1
    )
    assert sol.energy == pytest.approx(reference_energy, rel=1e-3)


def test_flow_demand_realization(benchmark, problem):
    """The combinatorial (max-flow) feasibility path used by admission
    control — orders of magnitude cheaper than any optimizer."""
    from repro.optimal import realize_demands

    tasks = problem.timeline.tasks
    demands = tasks.works / 2.0  # comfortably feasible at f = 2

    real = benchmark(lambda: realize_demands(tasks, problem.m, demands))
    assert real.feasible


def test_capped_interior_point(benchmark, problem, reference_energy):
    """The frequency-capped variant costs about the same as the plain solve
    (the cap barrier shares the Woodbury task-block structure)."""
    from repro.optimal import solve_optimal_capped

    tasks = problem.timeline.tasks

    sol = benchmark.pedantic(
        lambda: solve_optimal_capped(
            tasks, problem.m, problem.power, f_max=2.0
        ),
        rounds=3,
        iterations=1,
    )
    assert sol.energy >= reference_energy * (1 - 1e-8)
