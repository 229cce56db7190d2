"""Tests for periodic-task unrolling."""

import pytest

from repro.core import AdmissionController, SubintervalScheduler
from repro.power import PolynomialPower
from repro.sim import assert_valid
from repro.workloads.periodic import PeriodicTask, hyperperiod, unroll


class TestPeriodicTask:
    def test_defaults(self):
        t = PeriodicTask(period=10, wcet=2)
        assert t.relative_deadline == 10
        assert t.utilization == pytest.approx(0.2)
        assert t.density == pytest.approx(0.2)

    def test_constrained_deadline_density(self):
        t = PeriodicTask(period=10, wcet=2, deadline=4)
        assert t.density == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicTask(period=0, wcet=1)
        with pytest.raises(ValueError):
            PeriodicTask(period=1, wcet=0)
        with pytest.raises(ValueError):
            PeriodicTask(period=1, wcet=1, deadline=0)
        with pytest.raises(ValueError):
            PeriodicTask(period=1, wcet=1, phase=-1)


class TestHyperperiod:
    def test_integer_periods(self):
        ts = [PeriodicTask(4, 1), PeriodicTask(6, 1)]
        assert hyperperiod(ts) == 12

    def test_fractional_periods(self):
        ts = [PeriodicTask(0.5, 0.1), PeriodicTask(0.75, 0.1)]
        assert hyperperiod(ts) == pytest.approx(1.5)

    def test_single(self):
        assert hyperperiod([PeriodicTask(7, 1)]) == 7


class TestUnroll:
    def test_job_counts_over_hyperperiod(self):
        ts = [PeriodicTask(4, 1, name="A"), PeriodicTask(6, 1, name="B")]
        jobs = unroll(ts)  # horizon = 12
        names = [t.name for t in jobs]
        assert sum(n.startswith("A#") for n in names) == 3
        assert sum(n.startswith("B#") for n in names) == 2

    def test_release_deadline_pattern(self):
        jobs = unroll([PeriodicTask(4, 1, deadline=3)], horizon=12)
        rel = sorted(t.release for t in jobs)
        assert rel == [0.0, 4.0, 8.0]
        assert all(t.deadline == t.release + 3 for t in jobs)

    def test_phase_offset(self):
        jobs = unroll([PeriodicTask(4, 1, phase=2)], horizon=12)
        assert min(t.release for t in jobs) == 2.0

    def test_partial_jobs_dropped_by_default(self):
        jobs = unroll([PeriodicTask(4, 1)], horizon=10)
        # job released at 8 has deadline 12 > 10: dropped
        assert len(jobs) == 2
        jobs_incl = unroll([PeriodicTask(4, 1)], horizon=10, include_partial=True)
        assert len(jobs_incl) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            unroll([])
        with pytest.raises(ValueError):
            unroll([PeriodicTask(4, 1)], horizon=0.5)


class TestIntegration:
    def test_unrolled_set_schedules(self):
        ts = [PeriodicTask(4, 1), PeriodicTask(6, 2), PeriodicTask(12, 3)]
        jobs = unroll(ts)
        power = PolynomialPower(alpha=3.0, static=0.05)
        res = SubintervalScheduler(jobs, 2, power).final("der")
        assert_valid(res.schedule, tol=1e-6)

    def test_utilization_bound_consistency(self):
        """Implicit-deadline periodic set with U <= m is schedulable at
        f_max = 1 after unrolling (fluid bound, checked by the exact flow
        test)."""
        ts = [PeriodicTask(4, 2), PeriodicTask(6, 3), PeriodicTask(12, 6)]
        U = sum(t.utilization for t in ts)  # 0.5 + 0.5 + 0.5 = 1.5 <= 2
        assert U <= 2
        jobs = unroll(ts)
        power = PolynomialPower(alpha=3.0, static=0.0)
        assert AdmissionController(2, power, f_max=1.0).is_schedulable(jobs)

    def test_overutilized_set_not_schedulable(self):
        ts = [PeriodicTask(4, 4), PeriodicTask(4, 4), PeriodicTask(4, 4)]
        jobs = unroll(ts)
        power = PolynomialPower(alpha=3.0, static=0.0)
        assert not AdmissionController(2, power, f_max=1.0).is_schedulable(jobs)
