"""Unit tests for the online (re-planning) scheduler."""

import numpy as np
import pytest

from repro.core import OnlineSubintervalScheduler, SubintervalScheduler, TaskSet
from repro.optimal import solve_optimal
from repro.power import PolynomialPower
from repro.sim import assert_valid, execute_schedule
from tests.conftest import random_instance
from tests.oracles import online_rebuild


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("method", ["even", "der"])
    def test_always_valid_and_on_time(self, seed, method):
        tasks, power = random_instance(seed, n=12)
        res = OnlineSubintervalScheduler(tasks, 4, power, method=method).run()
        assert_valid(res.schedule, tol=1e-6)
        rep = execute_schedule(res.schedule)
        assert rep.all_deadlines_met

    @pytest.mark.parametrize("seed", range(5))
    def test_never_beats_optimal(self, seed):
        tasks, power = random_instance(seed, n=10)
        res = OnlineSubintervalScheduler(tasks, 4, power).run()
        opt = solve_optimal(tasks, 4, power)
        assert res.energy >= opt.energy * (1 - 1e-6)

    def test_single_release_matches_offline(self):
        # all tasks release simultaneously: the single re-plan IS the offline plan
        power = PolynomialPower(alpha=3.0, static=0.1)
        tasks = TaskSet.from_tuples([(0, 10, 4), (0, 8, 6), (0, 12, 3)])
        on = OnlineSubintervalScheduler(tasks, 2, power).run()
        off = SubintervalScheduler(tasks, 2, power).final("der")
        assert on.energy == pytest.approx(off.energy)
        assert on.replans == 1

    def test_replan_count(self):
        power = PolynomialPower(alpha=3.0, static=0.1)
        tasks = TaskSet.from_tuples([(0, 10, 4), (2, 12, 4), (5, 15, 4)])
        res = OnlineSubintervalScheduler(tasks, 2, power).run()
        assert res.replans == 3  # one per distinct release

    def test_work_conservation(self):
        tasks, power = random_instance(7, n=15)
        res = OnlineSubintervalScheduler(tasks, 4, power).run()
        np.testing.assert_allclose(
            res.schedule.work_completed(), tasks.works, rtol=1e-6
        )

    def test_microsecond_time_scale(self):
        # at a 1e6 time scale, rounding dust of ~1e-9 left on a finished
        # task must not keep it "known" past its deadline
        power = PolynomialPower(alpha=3.0, static=0.1)
        tasks = TaskSet.from_tuples(
            [(4e6, 8e6, 2.52e6), (2e6, 5e6, 1.91e6), (5e6, 7e6, 0.61e6), (2e6, 5e6, 2.8e6)]
        )
        res = OnlineSubintervalScheduler(tasks, 1, power).run()
        assert_valid(res.schedule, tol=1e-6)
        oracle = online_rebuild(tasks, 1, power)
        assert list(res.schedule) == list(oracle.schedule)

    def test_rejects_bad_m(self):
        tasks, power = random_instance(0, n=4)
        with pytest.raises(ValueError):
            OnlineSubintervalScheduler(tasks, 0, power)


class TestContention:
    def test_heavy_contention_still_meets_deadlines(self):
        # 6 tight tasks arriving in a burst onto 2 cores
        power = PolynomialPower(alpha=3.0, static=0.05)
        tasks = TaskSet.from_tuples(
            [(i * 0.1, i * 0.1 + 6.0, 4.0) for i in range(6)]
        )
        res = OnlineSubintervalScheduler(tasks, 2, power).run()
        assert_valid(res.schedule, tol=1e-6)

    def test_online_premium_is_bounded(self):
        # non-clairvoyance costs something but not an order of magnitude
        tasks, power = random_instance(3, n=20)
        on = OnlineSubintervalScheduler(tasks, 4, power).run()
        off = SubintervalScheduler(tasks, 4, power).final("der")
        assert on.energy <= off.energy * 3.0
