"""The interior-point progress record: ``KernelProfile.centers``.

Each centering step is recorded once, on the solution's profile; the
``ip.center`` span events are a mirror of that record, never a second
source.
"""

import time

import numpy as np
import pytest

from repro.core import Timeline
from repro.obs import context as obs
from repro.optimal import (
    ConvexProblem,
    InteriorPointSolver,
    IPConfig,
    WarmStart,
    solve_optimal,
    solve_problem,
)
from tests.conftest import random_instance


def _problem() -> ConvexProblem:
    tasks, power = random_instance(0, n=10)
    return ConvexProblem(Timeline(tasks), 4, power)


@pytest.fixture(scope="module")
def solution():
    return InteriorPointSolver(_problem()).solve()


@pytest.fixture(scope="module")
def centers(solution):
    return solution.profile.centers


class TestTrace:
    def test_solution_matches_plain_solver(self, solution):
        tasks, power = random_instance(0, n=10)
        plain = solve_optimal(tasks, 4, power)
        assert solution.energy == pytest.approx(plain.energy, rel=1e-9)

    def test_gaps_shrink_geometrically(self, centers):
        assert len(centers) >= 3
        gaps = np.array([r.gap for r in centers])
        assert np.all(gaps[1:] / gaps[:-1] <= 0.5 + 1e-12)

    def test_gap_matches_mu_schedule(self, centers):
        # gap_k = n_ineq / t_k with t growing by exactly mu
        g = np.array([r.gap for r in centers])
        ratios = g[:-1] / g[1:]
        np.testing.assert_allclose(ratios, IPConfig().mu)

    def test_objectives_monotone_toward_optimum(self, solution, centers):
        # the central path's objective decreases toward the optimum
        obj = [r.objective for r in centers]
        assert obj[-1] <= obj[0] + 1e-9
        assert obj[-1] == pytest.approx(solution.energy, rel=1e-6)

    def test_newton_iterations_cumulative(self, solution, centers):
        its = [r.newton_iterations for r in centers]
        assert all(b >= a for a, b in zip(its, its[1:]))
        assert solution.profile.total_newton == its[-1] == solution.iterations
        assert list(np.diff([0] + its)) == [r.newton_steps for r in centers]

    def test_final_gap_below_tolerance(self, solution, centers):
        cfg = IPConfig()
        assert centers[-1].gap <= cfg.gap_tol * max(abs(solution.energy), 1.0)


class TestProfileViews:
    def test_views_read_the_record(self, solution, centers):
        pr = solution.profile
        assert pr.newton_per_center == tuple(r.newton_steps for r in centers)
        assert pr.factor_time_s == centers[-1].factor_time_s
        factor = [r.factor_time_s for r in centers]
        assert all(b >= a for a, b in zip(factor, factor[1:]))


class TestPerSolveState:
    def test_repeat_solves_report_their_own_totals(self, monkeypatch):
        ticks = iter(range(10**9))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        solver = InteriorPointSolver(_problem())
        first = solver.solve().profile
        second = solver.solve().profile
        assert first.total_newton == second.total_newton
        assert first.factor_time_s == second.factor_time_s > 0
        assert first.dense_fallbacks == second.dense_fallbacks


class TestEventsMirrorTheRecord:
    @staticmethod
    def _traced_solve(warm=None):
        with obs.capture() as spans, obs.span("solver:optimal:interior-point"):
            sol = solve_problem(_problem(), warm=warm)
        (sp,) = spans
        return sol, sp["attrs"].get("events", [])

    @staticmethod
    def _assert_mirrored(sol, events):
        centers = sol.profile.centers
        assert [ev["name"] for ev in events] == ["ip.center"] * len(centers)
        for ev, rec in zip(events, centers):
            assert ev["t"] == rec.t
            assert ev["gap"] == rec.gap
            assert ev["objective"] == rec.objective
            assert ev["newton"] == rec.newton_steps
            assert ev["newton_iterations"] == rec.newton_iterations
            assert ev["factor_time_s"] == rec.factor_time_s

    def test_cold_solve(self, solution):
        sol, events = self._traced_solve()
        assert len(events) == len(solution.profile.centers)
        self._assert_mirrored(sol, events)

    def test_warm_solve(self, solution):
        carried = WarmStart(x=solution.x, t=solution.profile.t_certified)
        sol, events = self._traced_solve(warm=carried)
        assert sol.profile.warm_started
        assert len(events) < len(solution.profile.centers)
        self._assert_mirrored(sol, events)
