"""Cross-validation: three independent solvers must agree."""

import numpy as np
import pytest

from repro.core import Timeline
from repro.optimal import (
    ConvexProblem,
    solve_optimal,
    solve_with_scipy,
)
from repro.power import PolynomialPower
from tests.conftest import random_instance


@pytest.mark.parametrize("seed,p0,alpha", [(0, 0.0, 3.0), (1, 0.1, 3.0), (2, 0.2, 2.0), (3, 0.05, 2.5)])
def test_three_solvers_agree(seed, p0, alpha):
    tasks, _ = random_instance(seed, n=10)
    power = PolynomialPower(alpha=alpha, static=p0)
    ip = solve_optimal(tasks, 4, power)
    pg = solve_optimal(tasks, 4, power, solver="projected-gradient")
    sp = solve_optimal(tasks, 4, power, solver="SLSQP")
    assert pg.energy == pytest.approx(ip.energy, rel=1e-4)
    assert sp.energy == pytest.approx(ip.energy, rel=1e-4)


def test_trust_constr_agrees():
    tasks, power = random_instance(7, n=6)
    ip = solve_optimal(tasks, 2, power)
    tc = solve_optimal(tasks, 2, power, solver="trust-constr", tol=1e-10)
    assert tc.energy == pytest.approx(ip.energy, rel=1e-3)


@pytest.mark.parametrize("solver", ["interior-point", "projected-gradient"])
def test_keywords_the_backend_never_reads_rejected(solver):
    tasks, power = random_instance(0, n=8)
    with pytest.raises(TypeError, match="bogus, max_iter, tol"):
        solve_optimal(tasks, 2, power, solver, tol=1e-3, max_iter=1, bogus=5)


def test_unknown_scipy_method_rejected():
    tasks, power = random_instance(7, n=4)
    prob = ConvexProblem(Timeline(tasks), 2, power)
    with pytest.raises(ValueError, match="unsupported"):
        solve_with_scipy(prob, method="NELDER")


def test_pg_solver_name_and_feasibility():
    tasks, power = random_instance(5, n=8)
    sol = solve_optimal(tasks, 3, power, solver="projected-gradient")
    assert sol.solver == "projected-gradient"
    sol.problem.check_feasible(sol.x)


def test_scipy_solution_feasible():
    tasks, power = random_instance(6, n=8)
    sol = solve_optimal(tasks, 3, power, solver="SLSQP")
    sol.problem.check_feasible(sol.x)


def test_available_times_agree_where_strongly_convex():
    # with p0 > 0 the optimal A_i is unique, so solvers agree on it too
    tasks, _ = random_instance(8, n=8)
    power = PolynomialPower(alpha=3.0, static=0.2)
    ip = solve_optimal(tasks, 4, power)
    pg = solve_optimal(tasks, 4, power, solver="projected-gradient")
    np.testing.assert_allclose(ip.available_times, pg.available_times, rtol=5e-3)
