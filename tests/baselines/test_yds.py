"""Unit tests for the YDS uniprocessor baseline."""

import pytest

from repro.baselines import yds_schedule
from repro.core import TaskSet
from repro.optimal import solve_optimal
from repro.power import PolynomialPower
from repro.sim import assert_valid, execute_schedule
from tests.conftest import random_instance


class TestIntroExample:
    """Figs. 1–2: the paper's walked-through YDS run."""

    def test_critical_intervals(self, intro_tasks):
        res = yds_schedule(intro_tasks)
        assert len(res.critical_intervals) == 2
        first, second = res.critical_intervals
        assert (first.start, first.end) == (4.0, 8.0)
        assert first.speed == pytest.approx(1.0)
        assert first.task_ids == (2,)
        assert second.speed == pytest.approx(0.75)
        assert set(second.task_ids) == {0, 1}

    def test_schedule_valid(self, intro_tasks):
        res = yds_schedule(intro_tasks)
        assert_valid(res.schedule)

    def test_energy(self, intro_tasks):
        # 4 time units at speed 1 (f^3) + 8 units at 0.75: 4 + 8*0.421875
        res = yds_schedule(intro_tasks)
        assert res.energy == pytest.approx(4 * 1.0 + 8 * 0.75**3)

    def test_replay_meets_deadlines(self, intro_tasks):
        res = yds_schedule(intro_tasks)
        report = execute_schedule(res.schedule)
        assert report.all_deadlines_met
        assert report.total_energy == pytest.approx(res.energy)


class TestOptimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_convex_optimum_m1_p0_zero(self, seed):
        """YDS is optimal for m=1, p(0)=0 — cross-check vs the convex program."""
        tasks, _ = random_instance(seed, n=6)
        power = PolynomialPower(alpha=3.0, static=0.0)
        yds = yds_schedule(tasks, power)
        opt = solve_optimal(tasks, 1, power)
        assert yds.energy == pytest.approx(opt.energy, rel=1e-5)

    def test_convex_program_beats_yds_with_static_power(self):
        """With p0 > 0, YDS (static-power-oblivious) can be strictly worse."""
        power = PolynomialPower(alpha=2.0, static=1.0)  # f_crit = 1.0
        tasks = TaskSet.from_tuples([(0, 10, 2)])  # very slack task
        yds = yds_schedule(tasks, power)  # stretches to f = 0.2
        opt = solve_optimal(tasks, 1, power)  # runs at f_crit = 1.0
        assert opt.energy < yds.energy * 0.9


class TestRobustness:
    def test_single_task(self):
        res = yds_schedule(TaskSet.from_tuples([(1, 5, 2)]))
        assert len(res.critical_intervals) == 1
        assert res.critical_intervals[0].speed == pytest.approx(0.5)
        assert_valid(res.schedule)

    def test_identical_tasks(self):
        res = yds_schedule(TaskSet.from_tuples([(0, 4, 2), (0, 4, 2)]))
        assert_valid(res.schedule)
        # both must share the window: speed = 4 / 4 = 1
        assert res.critical_intervals[0].speed == pytest.approx(1.0)

    def test_disjoint_windows(self):
        res = yds_schedule(TaskSet.from_tuples([(0, 2, 1), (4, 6, 3)]))
        assert_valid(res.schedule)
        speeds = sorted(ci.speed for ci in res.critical_intervals)
        assert speeds == [pytest.approx(0.5), pytest.approx(1.5)]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_valid(self, seed):
        tasks, _ = random_instance(seed, n=8)
        res = yds_schedule(tasks)
        assert_valid(res.schedule)
        rep = execute_schedule(res.schedule)
        assert rep.all_deadlines_met

    def test_nested_windows_preemption(self):
        # classic YDS shape: a tight inner task preempts a long outer one
        tasks = TaskSet.from_tuples([(0, 10, 2), (4, 6, 2)])
        res = yds_schedule(tasks)
        assert_valid(res.schedule)
        inner = res.critical_intervals[0]
        assert (inner.start, inner.end) == (4.0, 6.0)
        assert inner.speed == pytest.approx(1.0)
        # outer task is split around the frozen interval
        outer_segs = res.schedule.segments_of_task(0)
        assert len(outer_segs) >= 2
