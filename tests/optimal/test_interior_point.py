"""Unit tests for the structured interior-point solver."""

import numpy as np
import pytest

from repro.core import SubintervalScheduler, TaskSet, Timeline
from repro.optimal import (
    ConvexProblem,
    InteriorPointSolver,
    PGConfig,
    solve_optimal,
    solve_problem,
    verify_optimality,
)
from repro.power import PolynomialPower
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig
from tests.conftest import random_instance


class TestMotivationalExample:
    """§II: 3 tasks on 2 cores, p(f) = f³ + 0.01, optimum 155/32 + 0.2."""

    def test_energy(self, motivational):
        tasks, power = motivational
        sol = solve_optimal(tasks, 2, power)
        assert sol.energy == pytest.approx(155 / 32 + 0.2, rel=1e-6)

    def test_available_times(self, motivational):
        tasks, power = motivational
        sol = solve_optimal(tasks, 2, power)
        np.testing.assert_allclose(
            sol.available_times, [8 + 8 / 3, 4 + 4 / 3, 4.0], rtol=1e-5
        )

    def test_frequencies(self, motivational):
        tasks, power = motivational
        sol = solve_optimal(tasks, 2, power)
        np.testing.assert_allclose(
            sol.frequencies, [4 / (8 + 8 / 3), 2 / (4 + 4 / 3), 1.0], rtol=1e-5
        )


class TestSolverProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_certificate(self, seed):
        tasks, power = random_instance(seed, n=10)
        sol = solve_optimal(tasks, 4, power)
        assert verify_optimality(sol.problem, sol.x, tol=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible(self, seed):
        tasks, power = random_instance(seed, n=10)
        sol = solve_optimal(tasks, 4, power)
        sol.problem.check_feasible(sol.x)

    @pytest.mark.parametrize("p0", [0.0, 0.1, 0.5])
    def test_lower_bounds_every_heuristic(self, p0):
        tasks, _ = random_instance(42, n=14)
        power = PolynomialPower(alpha=3.0, static=p0)
        opt = solve_optimal(tasks, 4, power)
        s = SubintervalScheduler(tasks, 4, power)
        for res in s.run_all().values():
            assert opt.energy <= res.energy * (1 + 1e-6)

    def test_gap_certificate_reported(self):
        tasks, power = random_instance(1, n=8)
        sol = solve_optimal(tasks, 2, power)
        assert np.isfinite(sol.gap)
        assert sol.gap <= 1e-6 * max(sol.energy, 1.0)

    def test_single_task_matches_closed_form(self):
        power = PolynomialPower(alpha=2.0, static=0.25)
        tasks = TaskSet.from_tuples([(0, 10, 2)])
        sol = solve_optimal(tasks, 1, power)
        # Fig. 3: optimum uses 4 time units at f = 0.5, E = 2.0
        assert sol.energy == pytest.approx(2.0, rel=1e-6)
        assert sol.available_times[0] == pytest.approx(4.0, rel=1e-4)

    def test_more_cores_never_hurt(self):
        tasks, power = random_instance(5, n=10)
        energies = [solve_optimal(tasks, m, power).energy for m in (1, 2, 4, 8)]
        for a, b in zip(energies, energies[1:]):
            assert b <= a * (1 + 1e-7)

    def test_unlimited_cores_matches_ideal(self):
        tasks, power = random_instance(9, n=8)
        s = SubintervalScheduler(tasks, len(tasks), power)
        sol = solve_optimal(tasks, len(tasks), power)
        assert sol.energy == pytest.approx(s.ideal_energy, rel=1e-6)

    def test_infeasible_start_rejected(self):
        tasks, power = random_instance(0, n=5)
        prob = ConvexProblem(Timeline(tasks), 2, power)
        solver = InteriorPointSolver(prob)
        with pytest.raises(ValueError, match="strictly feasible"):
            solver.solve(x0=np.zeros(prob.k))

    def test_iterations_reported(self):
        tasks, power = random_instance(4, n=6)
        sol = solve_optimal(tasks, 2, power)
        assert sol.iterations > 0
        assert sol.solver == "interior-point"

    @pytest.mark.parametrize("solver", ["interior-point", "SLSQP"])
    def test_config_reaches_projected_gradient_only(self, solver):
        tasks, power = random_instance(0, n=5)
        prob = ConvexProblem(Timeline(tasks), 2, power)
        with pytest.raises(ValueError, match="projected-gradient"):
            solve_problem(prob, solver, config=PGConfig())


class TestPolish:
    def test_paper_scale_polish_stops_early(self):
        # Fig. 6's platform: the polish ends at a stationary iterate long
        # before its 250-iteration ceiling and still lands on the dense
        # kernel's optimum
        rng = np.random.default_rng(7)
        for p0 in (0.0, 0.1, 0.2):
            tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=20))
            power = PolynomialPower(alpha=3.0, static=p0)
            prob = ConvexProblem(Timeline(tasks), 4, power)
            cold = solve_problem(prob)
            dense = solve_problem(prob, kernel="dense")
            assert cold.profile.polish_iters <= 25
            assert abs(cold.energy - dense.energy) <= 1e-13 * dense.energy
