"""Tests for flow-based demand feasibility/realization."""

import numpy as np
import pytest

from repro.core import SubintervalScheduler, TaskSet, Timeline
from repro.core.wrap_schedule import wrap_schedule
from repro.optimal import DemandFlow, realize_demands, solve_optimal
from tests.conftest import random_instance
from tests.oracles import realize_demands_dinic


class TestFeasibility:
    def test_zero_demands_feasible(self):
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1)])
        assert realize_demands(tasks, 1, [0.0, 0.0]).feasible

    def test_full_windows_on_enough_cores(self):
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1)])
        assert realize_demands(tasks, 2, [4.0, 4.0]).feasible

    def test_overload_detected(self):
        # two full-window demands on one core: impossible
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1)])
        assert not realize_demands(tasks, 1, [4.0, 4.0]).feasible

    def test_exact_capacity_boundary(self):
        # 2 + 2 = 4 = 1 core x 4: exactly feasible
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1)])
        assert realize_demands(tasks, 1, [2.0, 2.0]).feasible

    def test_demand_exceeding_window_rejected(self):
        tasks = TaskSet.from_tuples([(0, 4, 1)])
        with pytest.raises(ValueError, match="window"):
            realize_demands(tasks, 2, [5.0])

    def test_validation(self):
        tasks = TaskSet.from_tuples([(0, 4, 1)])
        with pytest.raises(ValueError):
            realize_demands(tasks, 0, [1.0])
        with pytest.raises(ValueError):
            realize_demands(tasks, 1, [-1.0])
        with pytest.raises(ValueError):
            realize_demands(tasks, 1, [1.0, 2.0])


class TestRealization:
    def test_realized_x_is_valid(self):
        tasks, power = random_instance(0, n=10)
        sch = SubintervalScheduler(tasks, 3, power)
        demands = sch.plan("der").available_times * 0.8
        real = realize_demands(tasks, 3, demands)
        assert real.feasible
        tl = Timeline(tasks)
        # x within per-variable caps and per-subinterval capacity
        assert np.all(real.x <= tl.lengths[None, :] + 1e-9)
        assert np.all(real.x.sum(axis=0) <= 3 * tl.lengths + 1e-9)
        np.testing.assert_allclose(real.x.sum(axis=1), demands, rtol=1e-9)
        assert np.all(real.shortfall < 1e-9)

    def test_realized_x_packs_with_algorithm_1(self):
        tasks, power = random_instance(1, n=8)
        sch = SubintervalScheduler(tasks, 2, power)
        demands = sch.plan("der").available_times
        real = realize_demands(tasks, 2, demands)
        assert real.feasible
        tl = Timeline(tasks)
        for sub in tl:
            alloc = {tid: float(real.x[tid, sub.index]) for tid in sub.task_ids}
            wrap_schedule(sub.start, sub.end, alloc, 2)  # must not raise

    def test_optimal_demands_are_feasible(self):
        """The convex optimum's A vector must pass the combinatorial check —
        cross-validation of two entirely different formulations."""
        tasks, power = random_instance(2, n=10)
        opt = solve_optimal(tasks, 4, power)
        assert realize_demands(tasks, 4, opt.available_times, rtol=1e-6).feasible

    def test_infeasible_reports_shortfall_and_bottleneck(self):
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1), (0, 4, 1)])
        real = realize_demands(tasks, 1, [4.0, 4.0, 4.0])
        assert not real.feasible
        assert real.shortfall.sum() == pytest.approx(8.0)
        assert real.bottleneck_subintervals == (0,)

    def test_partial_realization_is_maximal(self):
        tasks = TaskSet.from_tuples([(0, 4, 1), (0, 4, 1)])
        real = realize_demands(tasks, 1, [4.0, 4.0])
        # capacity 4 gets fully used even though demands total 8
        assert real.x.sum() == pytest.approx(4.0)

    def test_disjoint_windows_independent(self):
        tasks = TaskSet.from_tuples([(0, 4, 1), (10, 14, 1)])
        real = realize_demands(tasks, 1, [4.0, 4.0])
        assert real.feasible


class TestDemandFlow:
    def test_with_task_leaves_the_state_unchanged(self):
        one = DemandFlow(1).with_task(0.0, 4.0, 2.0)
        before = (one.boundaries.copy(), one.coverage.copy(), one.x.copy())
        two = one.with_task(1.0, 3.0, 1.0)
        assert len(one) == 1 and len(two) == 2
        for kept, arr in zip(before, (one.boundaries, one.coverage, one.x)):
            np.testing.assert_array_equal(kept, arr)

    def test_cut_splits_flow_in_proportion(self):
        flow = DemandFlow(1).with_task(0.0, 4.0, 2.0).with_task(1.0, 3.0, 0.0)
        np.testing.assert_array_equal(flow.boundaries, [0.0, 1.0, 3.0, 4.0])
        np.testing.assert_allclose(flow.x[0], [0.5, 1.0, 0.5], rtol=1e-15)
        assert flow.paths == 0  # the split flow already meets every demand

    def test_boundary_outside_horizon_adds_an_empty_column(self):
        flow = DemandFlow(1).with_task(0.0, 4.0, 2.0).with_task(6.0, 8.0, 1.0)
        np.testing.assert_array_equal(flow.boundaries, [0.0, 4.0, 6.0, 8.0])
        np.testing.assert_array_equal(flow.coverage, [[1, 0, 0], [0, 0, 1]])
        np.testing.assert_array_equal(flow.x, [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_arrival_reroutes_committed_flow(self):
        # task 0's flow splits 1 + 1 around t=2; the new task needs all of
        # [0, 2], so task 0's half there must move to [2, 4]
        flow = DemandFlow(1).with_task(0.0, 4.0, 2.0).with_task(0.0, 2.0, 2.0)
        assert flow.feasible
        np.testing.assert_array_equal(flow.x, [[0.0, 2.0], [2.0, 0.0]])
        assert flow.paths == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_max_flow_value_matches_a_fresh_network(self, seed):
        """Every arrival kept, feasible or not: the augmented flow is a
        maximum flow of the network over all tasks so far, as the Dinic
        oracle finds it on a new network."""
        tasks, _ = random_instance(seed, n=14)
        m = 2
        demands = tasks.works / 2.0
        flow = DemandFlow(m)
        for k, task in enumerate(tasks):
            flow = flow.with_task(task.release, task.deadline, demands[k])
            prefix = TaskSet(list(tasks)[: k + 1])
            # a demand above its window cannot be met either way; the fresh
            # network refuses one, so cap it there (its flow is the same)
            fresh = realize_demands_dinic(
                prefix, m, np.minimum(demands[: k + 1], prefix.windows)
            )
            if np.all(demands[: k + 1] <= prefix.windows):
                assert flow.feasible == fresh.feasible
            tl = Timeline(prefix)
            np.testing.assert_array_equal(flow.boundaries, tl.boundaries)
            np.testing.assert_array_equal(flow.coverage, tl.coverage)
            assert np.all(flow.x >= 0.0) and np.all(flow.x[~flow.coverage] == 0.0)
            assert np.all(flow.x <= tl.lengths)
            assert np.all(flow.x.sum(axis=0) <= m * tl.lengths * (1 + 1e-12))
            assert np.all(flow.x.sum(axis=1) <= demands[: k + 1] * (1 + 1e-12))
            tol = 1e-9 * fresh.x.sum()
            assert abs(flow.x.sum() - fresh.x.sum()) <= tol
