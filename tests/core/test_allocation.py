"""Unit tests for available-time allocation (even and Algorithm 2)."""

import numpy as np
import pytest

from repro.core import (
    TaskSet,
    Timeline,
    allocate_der,
    allocate_evenly,
    build_allocation_plan,
    solve_ideal,
)
from repro.power import PolynomialPower
from repro.workloads import SIX_TASK_EXPECTED
from tests.oracles import scalar_plan


@pytest.fixture
def six_setup(six_tasks, cube_power):
    tl = Timeline(six_tasks)
    ideal = solve_ideal(six_tasks, cube_power)
    return tl, ideal


class TestEvenAllocation:
    def test_paper_share(self, six_setup):
        tl, _ = six_setup
        sub = tl[tl.locate(8.0)]
        alloc = allocate_evenly(sub, 4)
        assert set(alloc) == set(sub.task_ids)
        for v in alloc.values():
            assert v == pytest.approx(SIX_TASK_EXPECTED["even_share"])

    def test_light_subinterval_clamped_to_length(self, six_setup):
        tl, _ = six_setup
        sub = tl[0]  # only task 0 overlaps [0, 2]
        alloc = allocate_evenly(sub, 4)
        assert alloc == {0: 2.0}

    def test_total_never_exceeds_capacity(self, six_setup):
        tl, _ = six_setup
        for sub in tl:
            alloc = allocate_evenly(sub, 4)
            assert sum(alloc.values()) <= 4 * sub.length + 1e-12

    def test_rejects_bad_m(self, six_setup):
        tl, _ = six_setup
        with pytest.raises(ValueError):
            allocate_evenly(tl[0], 0)


class TestDerAllocation:
    def test_paper_values_8_10(self, six_setup):
        tl, ideal = six_setup
        sub = tl[tl.locate(8.0)]
        alloc = allocate_der(sub, 4, ideal)
        expected = SIX_TASK_EXPECTED["der_alloc_8_10"]
        for tid in range(6):
            assert alloc.get(tid, 0.0) == pytest.approx(expected[tid], abs=1e-4)

    def test_paper_values_12_14_with_cap(self, six_setup):
        tl, ideal = six_setup
        sub = tl[tl.locate(12.0)]
        alloc = allocate_der(sub, 4, ideal)
        expected = SIX_TASK_EXPECTED["der_alloc_12_14"]
        for tid in range(6):
            assert alloc.get(tid, 0.0) == pytest.approx(expected[tid], abs=1e-4)
        # task 1 (paper's τ2) is capped at the subinterval length
        assert alloc[1] == pytest.approx(sub.length)

    def test_shares_within_bounds(self, six_setup):
        tl, ideal = six_setup
        for sub in tl:
            alloc = allocate_der(sub, 4, ideal)
            for v in alloc.values():
                assert -1e-12 <= v <= sub.length + 1e-12
            assert sum(alloc.values()) <= 4 * sub.length + 1e-9

    def test_zero_der_gets_zero(self, cube_power):
        # task 1's ideal execution ends before [4, 6]: p0>0 shrinks usage
        power = PolynomialPower(alpha=2.0, static=0.25)
        ts = TaskSet.from_tuples([(0, 6, 1), (0, 6, 1), (0, 6, 0.5), (4, 6, 2)])
        tl = Timeline(ts)
        ideal = solve_ideal(ts, power)
        # all four overlap [4,6]; m=2 -> heavy; task 2 (C=0.5, f_crit=.5 -> 1
        # unit in [0,1]) has zero DER there
        sub = tl[tl.locate(4.0)]
        assert sub.is_heavy(2)
        alloc = allocate_der(sub, 2, ideal)
        assert alloc[2] == 0.0
        assert alloc[3] > 0.0

    def test_monotone_in_der(self, six_setup):
        tl, ideal = six_setup
        sub = tl[tl.locate(8.0)]
        alloc = allocate_der(sub, 4, ideal)
        ders = {
            tid: float(ideal.overlap_with(sub.start, sub.end)[tid] * ideal.frequencies[tid])
            for tid in sub.task_ids
        }
        order = sorted(sub.task_ids, key=lambda t: ders[t])
        allocs = [alloc[t] for t in order]
        assert all(a <= b + 1e-9 for a, b in zip(allocs, allocs[1:]))


class TestAllocationPlan:
    def test_light_subintervals_get_full_length(self, six_setup, six_tasks):
        tl, ideal = six_setup
        plan = build_allocation_plan(tl, 4, "der", ideal=ideal)
        for sub in tl.light(4):
            for tid in sub.task_ids:
                assert plan.x[tid, sub.index] == pytest.approx(sub.length)

    def test_uncovered_entries_zero(self, six_setup):
        tl, ideal = six_setup
        plan = build_allocation_plan(tl, 4, "even")
        assert np.all(plan.x[~tl.coverage] == 0.0)

    def test_available_times_paper_f1(self, six_setup, six_tasks):
        tl, _ = six_setup
        plan = build_allocation_plan(tl, 4, "even")
        # τ1: 8 (light) + 8/5; τ6: 8 + 8/5
        a = plan.available_times
        assert a[0] == pytest.approx(8 + 8 / 5)
        assert a[5] == pytest.approx(8 + 8 / 5)

    def test_der_requires_ideal(self, six_setup):
        tl, _ = six_setup
        with pytest.raises(ValueError, match="ideal"):
            build_allocation_plan(tl, 4, "der")

    def test_unknown_method(self, six_setup):
        tl, _ = six_setup
        with pytest.raises(ValueError, match="unknown"):
            build_allocation_plan(tl, 4, "best")  # type: ignore[arg-type]

    def test_check_catches_overcommit(self, six_setup):
        tl, ideal = six_setup
        plan = build_allocation_plan(tl, 4, "der", ideal=ideal)
        bad = plan.x.copy()
        bad.setflags(write=True)
        bad[:, 0] = tl.lengths[0]  # all six tasks full-time in one subinterval
        from repro.core.allocation import AllocationPlan

        broken = AllocationPlan(timeline=tl, m=4, method="der", x=bad)
        with pytest.raises(AssertionError):
            broken.check()

    def test_heavy_subintervals_listed(self, six_setup):
        tl, ideal = six_setup
        plan = build_allocation_plan(tl, 4, "der", ideal=ideal)
        assert [(s.start, s.end) for s in plan.heavy_subintervals()] == [
            (8.0, 10.0),
            (12.0, 14.0),
        ]

    def test_plan_x_readonly(self, six_setup):
        tl, _ = six_setup
        plan = build_allocation_plan(tl, 4, "even")
        with pytest.raises(ValueError):
            plan.x[0, 0] = 99.0

    def test_check_catches_starved_subinterval(self, six_setup):
        tl, ideal = six_setup
        plan = build_allocation_plan(tl, 4, "der", ideal=ideal)
        bad = plan.x.copy()
        bad.setflags(write=True)
        bad[:, tl.locate(8.0)] = 0.0  # five tasks overlap, nothing allocated
        from repro.core.allocation import AllocationPlan

        broken = AllocationPlan(timeline=tl, m=4, method="der", x=bad)
        with pytest.raises(AssertionError, match="starvation"):
            broken.check()


class TestScalarReference:
    """The per-subinterval oracle loop and the batched assembly agree."""

    def test_even_bitwise_equal(self, six_setup):
        tl, _ = six_setup
        vec = build_allocation_plan(tl, 4, "even")
        ref = scalar_plan(tl, 4, "even")
        assert np.array_equal(vec.x, ref.x)

    def test_der_matches_on_paper_example(self, six_setup):
        tl, ideal = six_setup
        vec = build_allocation_plan(tl, 4, "der", ideal=ideal)
        ref = scalar_plan(tl, 4, "der", ideal=ideal)
        np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_der_matches_on_random_instances(self, seed, m):
        from tests.conftest import random_instance

        tasks, power = random_instance(seed, n=18)
        tl = Timeline(tasks)
        ideal = solve_ideal(tasks, power)
        vec = build_allocation_plan(tl, m, "der", ideal=ideal)
        ref = scalar_plan(tl, m, "der", ideal=ideal)
        np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-12)


class TestZeroWeightFallback:
    """All-zero DER in a heavy subinterval falls back to the even split."""

    @staticmethod
    def _all_zero_der_instance():
        # p(f) = f² + 0.25 → f_crit = 0.5: the three [0, 6] tasks finish
        # their ideal execution by t = 2, so every DER in [4, 6] is zero.
        # Task (0, 4, 1) only contributes the boundary at t = 4.
        power = PolynomialPower(alpha=2.0, static=0.25)
        ts = TaskSet.from_tuples([(0, 6, 1), (0, 6, 1), (0, 6, 1), (0, 4, 1)])
        tl = Timeline(ts)
        return tl, solve_ideal(ts, power)

    def test_heavy_all_zero_gets_even_split(self):
        tl, ideal = self._all_zero_der_instance()
        sub = tl[tl.locate(4.0)]
        assert sub.is_heavy(2)
        alloc = allocate_der(sub, 2, ideal)
        assert all(
            alloc[tid] == pytest.approx(2 * sub.length / 3) for tid in sub.task_ids
        )

    def test_plan_passes_check_both_paths(self):
        tl, ideal = self._all_zero_der_instance()
        for plan in (
            build_allocation_plan(tl, 2, "der", ideal=ideal),
            scalar_plan(tl, 2, "der", ideal=ideal),
        ):
            plan.check()
            assert np.all(plan.available_times > 0)

    def test_vectorized_matches_scalar(self):
        tl, ideal = self._all_zero_der_instance()
        vec = build_allocation_plan(tl, 2, "der", ideal=ideal)
        ref = scalar_plan(tl, 2, "der", ideal=ideal)
        np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-12)

    def test_refined_frequencies_stay_bounded(self):
        # without the fallback the [4, 6] capacity is stranded, shrinking
        # A_i and inflating the refined frequencies downstream
        from repro.core import SubintervalScheduler

        power = PolynomialPower(alpha=2.0, static=0.25)
        ts = TaskSet.from_tuples([(0, 6, 1), (0, 6, 1), (0, 6, 1), (0, 4, 1)])
        res = SubintervalScheduler(ts, 2, power).final("der")
        assert np.all(np.isfinite(res.frequencies))
        assert res.energy > 0


class TestModuleAnnotations:
    def test_type_hints_resolve(self):
        # regression: `Mapping` used in an annotation but not imported made
        # typing.get_type_hints blow up with NameError under postponed
        # annotation evaluation
        import typing

        from repro.core import allocation

        hints = typing.get_type_hints(allocation.allocate_proportional)
        assert "weights" in hints
