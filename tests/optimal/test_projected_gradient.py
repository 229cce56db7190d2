"""Unit tests for the projected-gradient solver and its projection."""

import numpy as np
import pytest

from repro.core import Timeline
from repro.optimal import ConvexProblem, PGConfig, ProjectedGradientSolver, solve_optimal
from tests.conftest import random_instance
from tests.oracles import project_capped_box


class TestProjection:
    def test_inside_point_unchanged(self):
        y = np.array([0.5, 1.0])
        u = np.array([2.0, 2.0])
        np.testing.assert_allclose(project_capped_box(y, u, 4.0), y)

    def test_box_clipping(self):
        y = np.array([-1.0, 5.0])
        u = np.array([2.0, 2.0])
        np.testing.assert_allclose(project_capped_box(y, u, 10.0), [0.0, 2.0])

    def test_cap_enforced(self):
        y = np.array([3.0, 3.0])
        u = np.array([5.0, 5.0])
        out = project_capped_box(y, u, 4.0)
        assert out.sum() == pytest.approx(4.0, abs=1e-9)
        np.testing.assert_allclose(out, [2.0, 2.0])  # symmetric shift

    def test_cap_with_box_interaction(self):
        y = np.array([10.0, 0.5])
        u = np.array([2.0, 2.0])
        out = project_capped_box(y, u, 2.0)
        assert out.sum() <= 2.0 + 1e-9
        assert np.all(out <= u + 1e-12)
        assert np.all(out >= -1e-12)

    def test_projection_is_idempotent(self, rng):
        for _ in range(20):
            y = rng.normal(0, 3, 6)
            u = rng.uniform(0.5, 3, 6)
            cap = rng.uniform(0.5, 6)
            p1 = project_capped_box(y, u, cap)
            p2 = project_capped_box(p1, u, cap)
            np.testing.assert_allclose(p1, p2, atol=1e-8)

    def test_projection_minimizes_distance(self, rng):
        # compare against brute-force grid search on a 2-D instance
        u = np.array([1.0, 1.0])
        cap = 1.2
        y = np.array([1.5, 0.9])
        proj = project_capped_box(y, u, cap)
        grid = np.linspace(0, 1, 101)
        best = None
        for a in grid:
            for b in grid:
                if a + b <= cap:
                    d = (a - y[0]) ** 2 + (b - y[1]) ** 2
                    if best is None or d < best[0]:
                        best = (d, a, b)
        assert proj[0] == pytest.approx(best[1], abs=0.02)
        assert proj[1] == pytest.approx(best[2], abs=0.02)


class TestSolver:
    def test_converges_on_small_instance(self):
        tasks, power = random_instance(0, n=6)
        prob = ConvexProblem(Timeline(tasks), 2, power)
        sol = ProjectedGradientSolver(prob).solve()
        prob.check_feasible(sol.x)
        assert sol.iterations > 0

    def test_monotone_objective_wrt_start(self):
        tasks, power = random_instance(1, n=6)
        prob = ConvexProblem(Timeline(tasks), 2, power)
        start = prob.feasible_start(0.5)
        sol = ProjectedGradientSolver(prob).solve(x0=start)
        assert sol.energy <= prob.objective(start) + 1e-9

    def test_config_iteration_cap(self):
        tasks, power = random_instance(2, n=6)
        prob = ConvexProblem(Timeline(tasks), 2, power)
        sol = ProjectedGradientSolver(prob, PGConfig(max_iter=5)).solve()
        assert sol.iterations <= 5

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_stops_at_a_stationary_start(self, seed):
        # started at the interior-point optimum, no step lowers the energy:
        # one restart, then the plain projected step from the incumbent
        # fails too and ends the loop
        tasks, power = random_instance(seed, n=12)
        opt = solve_optimal(tasks, 4, power)
        sol = ProjectedGradientSolver(opt.problem).solve(x0=opt.x)
        assert sol.iterations <= 3
        assert sol.energy <= opt.energy
