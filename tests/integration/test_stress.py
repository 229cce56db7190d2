"""Stress and numerical-edge tests across the stack."""

import numpy as np
import pytest

from repro.core import SubintervalScheduler, TaskSet
from repro.optimal import solve_optimal
from repro.power import PolynomialPower
from repro.sim import assert_valid
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig


class TestScale:
    def test_large_instance_pipeline(self):
        """100 tasks, 8 cores: the heuristic must stay fast and valid."""
        rng = np.random.default_rng(0)
        tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=100))
        power = PolynomialPower(alpha=3.0, static=0.1)
        sch = SubintervalScheduler(tasks, 8, power)
        res = sch.final("der")
        assert_valid(res.schedule, tol=1e-6)
        assert res.energy > 0

    def test_large_instance_optimal(self):
        """60 tasks: the structured IP solver handles thousands of variables."""
        rng = np.random.default_rng(1)
        tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=60))
        power = PolynomialPower(alpha=3.0, static=0.1)
        opt = solve_optimal(tasks, 4, power)
        heur = SubintervalScheduler(tasks, 4, power).final("der")
        assert opt.energy <= heur.energy * (1 + 1e-6)
        assert opt.gap <= 1e-6 * opt.energy

    def test_many_identical_tasks(self):
        tasks = TaskSet.from_tuples([(0, 10, 5)] * 30)
        power = PolynomialPower(alpha=3.0, static=0.05)
        res = SubintervalScheduler(tasks, 4, power).final("der")
        assert_valid(res.schedule, tol=1e-6)
        # identical tasks get identical frequencies
        freqs = np.asarray(res.frequencies)
        assert np.allclose(freqs, freqs[0])


class TestNumericalEdges:
    def test_extreme_work_magnitudes(self):
        tasks = TaskSet.from_tuples([(0, 10, 1e-6), (0, 10, 1e6), (1, 9, 1.0)])
        power = PolynomialPower(alpha=3.0, static=0.01)
        res = SubintervalScheduler(tasks, 2, power).final("der")
        assert_valid(res.schedule, tol=1e-6)

    def test_tiny_windows(self):
        tasks = TaskSet.from_tuples([(0.0, 1e-6, 1.0), (0.0, 10.0, 1.0)])
        power = PolynomialPower(alpha=3.0, static=0.1)
        res = SubintervalScheduler(tasks, 2, power).final("der")
        assert_valid(res.schedule, tol=1e-6)

    def test_nearly_coincident_boundaries(self):
        # releases/deadlines separated by float dust must not break packing
        tasks = TaskSet.from_tuples(
            [
                (0.0, 10.0, 4.0),
                (1e-13, 10.0 + 1e-13, 4.0),
                (0.0, 10.0 - 1e-13, 4.0),
            ]
        )
        power = PolynomialPower(alpha=3.0, static=0.0)
        res = SubintervalScheduler(tasks, 1, power).final("der")
        np.testing.assert_allclose(
            res.schedule.work_completed(), tasks.works, rtol=1e-6
        )

    def test_huge_alpha(self):
        tasks = TaskSet.from_tuples([(0, 10, 4), (0, 10, 4), (0, 10, 4)])
        power = PolynomialPower(alpha=8.0, static=0.01)
        res = SubintervalScheduler(tasks, 2, power).final("der")
        assert_valid(res.schedule, tol=1e-6)
        opt = solve_optimal(tasks, 2, power)
        assert opt.energy <= res.energy * (1 + 1e-6)

    def test_large_static_power(self):
        # static power dominating dynamic: everything clamps at f_crit
        tasks = TaskSet.from_tuples([(0, 100, 1), (0, 100, 1)])
        power = PolynomialPower(alpha=2.0, static=100.0)  # f_crit = 10
        res = SubintervalScheduler(tasks, 2, power).final("der")
        assert np.allclose(res.frequencies, 10.0)
        assert_valid(res.schedule, tol=1e-6)

    def test_long_horizon_offset(self):
        # tasks far from t=0: absolute-time arithmetic must not degrade
        base = TaskSet.from_tuples([(0, 10, 4), (2, 12, 6), (4, 14, 5)])
        shifted = base.shifted(1e7)
        power = PolynomialPower(alpha=3.0, static=0.1)
        e_base = SubintervalScheduler(base, 2, power).final("der").energy
        e_shift = SubintervalScheduler(shifted, 2, power).final("der").energy
        assert e_shift == pytest.approx(e_base, rel=1e-6)


class TestDegenerateShapes:
    def test_single_subinterval_instance(self):
        tasks = TaskSet.from_tuples([(0, 10, 3), (0, 10, 5), (0, 10, 7)])
        power = PolynomialPower(alpha=3.0, static=0.0)
        sch = SubintervalScheduler(tasks, 2, power)
        assert len(sch.timeline) == 1
        assert_valid(sch.final("der").schedule, tol=1e-6)

    def test_chain_of_disjoint_tasks(self):
        tasks = TaskSet.from_tuples([(2 * i, 2 * i + 2, 1.0) for i in range(20)])
        power = PolynomialPower(alpha=3.0, static=0.1)
        res = SubintervalScheduler(tasks, 1, power).final("der")
        assert_valid(res.schedule, tol=1e-6)
        # no contention anywhere: matches ideal exactly
        sch = SubintervalScheduler(tasks, 1, power)
        assert res.energy == pytest.approx(sch.ideal_energy)

    def test_nested_telescope_windows(self):
        tasks = TaskSet.from_tuples(
            [(i, 20 - i, 2.0) for i in range(8)]  # windows nest like a telescope
        )
        power = PolynomialPower(alpha=3.0, static=0.05)
        res = SubintervalScheduler(tasks, 3, power).final("der")
        assert_valid(res.schedule, tol=1e-6)
