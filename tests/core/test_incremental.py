"""Unit tests for the incremental scheduling session (delta re-planning)."""

import numpy as np
import pytest

from repro.core import (
    OnlineSubintervalScheduler,
    ScheduleSession,
    SubintervalScheduler,
    Task,
    TaskSet,
)
from repro.power import PolynomialPower
from repro.sim import assert_valid
from tests.conftest import random_instance
from tests.oracles import batch_oracle, online_rebuild


def _batch_plan(session):
    """Fresh batch rebuild over the session's current rows."""
    sch = SubintervalScheduler(session.taskset(), session.m, session.power)
    return sch.plan(session.method)


def _assert_matches_batch(session):
    plan = _batch_plan(session)
    np.testing.assert_array_equal(plan.timeline.boundaries, session.boundaries)
    np.testing.assert_array_equal(plan.timeline.coverage, session._cov)
    np.testing.assert_array_equal(plan.x, session._x)


class TestDeltas:
    @pytest.mark.parametrize("method", ["even", "der"])
    def test_adds_match_batch(self, method, static_power):
        session = ScheduleSession(2, static_power, method=method)
        for task in [(0, 10, 4), (2, 8, 5), (1, 12, 3), (4, 9, 2), (6, 20, 8)]:
            session.add_task(Task(*task))
            _assert_matches_batch(session)

    @pytest.mark.parametrize("method", ["even", "der"])
    def test_remove_matches_batch(self, method, static_power):
        session = ScheduleSession(2, static_power, method=method)
        handles = [
            session.add_task(Task(*t))
            for t in [(0, 10, 4), (2, 8, 5), (1, 12, 3), (4, 9, 2)]
        ]
        session.remove_task(handles[1])
        _assert_matches_batch(session)
        session.complete_task(handles[3])
        _assert_matches_batch(session)

    @pytest.mark.parametrize("method", ["even", "der"])
    def test_advance_matches_batch(self, method, static_power):
        session = ScheduleSession(2, static_power, method=method)
        h = [
            session.add_task(Task(*t))
            for t in [(0, 10, 4), (2, 8, 5), (1, 12, 3)]
        ]
        session.advance_to(3.0, works={h[0]: 2.0})
        # the batch oracle sees the re-anchored rows
        _assert_matches_batch(session)
        assert session.task_of(h[0]).release == 3.0
        assert session.task_of(h[0]).work == 2.0
        assert session.task_of(h[2]).release == 3.0

    def test_energy_matches_batch_final(self, static_power):
        session = ScheduleSession(3, static_power, method="der")
        for t in [(0, 10, 4), (2, 8, 5), (1, 12, 3), (4, 9, 2)]:
            session.add_task(Task(*t))
        batch = batch_oracle(session).final("der")
        assert session.energy == batch.energy

    def test_result_materializes_valid_schedule(self, static_power):
        session = ScheduleSession(2, static_power, method="der")
        for t in [(0, 10, 4), (2, 8, 5), (1, 12, 3)]:
            session.add_task(Task(*t))
        res = session.result()
        assert_valid(res.schedule, tol=1e-6)
        batch = batch_oracle(session).final("der")
        assert res.energy == batch.energy
        assert list(res.schedule) == list(batch.schedule)

    def test_final_segments_match_batch_schedule(self, static_power):
        session = ScheduleSession(2, static_power, method="even")
        for t in [(0, 10, 4), (2, 8, 5), (1, 12, 3), (3, 7, 1)]:
            session.add_task(Task(*t))
        segs = session.final_segments()
        batch = batch_oracle(session).final("even")
        assert segs == list(batch.schedule)

    def test_empty_after_removing_all(self, static_power):
        session = ScheduleSession(2, static_power)
        h1 = session.add_task(Task(0, 10, 4))
        h2 = session.add_task(Task(2, 8, 5))
        session.remove_task(h1)
        session.remove_task(h2)
        assert session.is_empty
        assert session.energy == 0.0
        assert session.n_subintervals == 0
        assert session.final_segments() == []

    def test_insertion_index_controls_row_order(self, static_power):
        session = ScheduleSession(2, static_power)
        session.add_task(Task(2, 8, 5))
        session.add_task(Task(0, 10, 4), index=0)
        tasks = session.taskset()
        assert tasks.releases[0] == 0.0
        assert tasks.releases[1] == 2.0


class TestDeltaAccounting:
    def test_touched_less_than_total_for_disjoint_add(self, static_power):
        session = ScheduleSession(1, static_power)
        # a long chain of disjoint windows: a new arrival at the end must
        # not touch the earlier columns
        for k in range(6):
            session.add_task(Task(10 * k, 10 * k + 8, 4.0))
        stats = session.last_delta
        assert stats.op == "add_task"
        assert stats.touched < stats.total
        assert session.deltas_applied == 6
        assert 0 < session.touched_columns < session.total_columns

    def test_stats_on_spans(self, static_power):
        from repro.obs import context as obs

        session = ScheduleSession(2, static_power)
        with obs.capture() as spans:
            with obs.span("test.root"):
                session.add_task(Task(0, 10, 4))
                session.add_task(Task(2, 8, 5))
        deltas = [s for s in spans if s["name"] == "session.delta"]
        assert len(deltas) == 2
        assert all(s["attrs"]["op"] == "add_task" for s in deltas)
        assert deltas[-1]["attrs"]["total"] == session.n_subintervals


class TestErrors:
    def test_unknown_handle(self, static_power):
        session = ScheduleSession(2, static_power)
        session.add_task(Task(0, 10, 4))
        with pytest.raises(KeyError):
            session.remove_task(99)

    def test_advance_empty_session(self, static_power):
        session = ScheduleSession(2, static_power)
        with pytest.raises(ValueError, match="empty"):
            session.advance_to(1.0)

    def test_advance_past_deadline(self, static_power):
        session = ScheduleSession(2, static_power)
        session.add_task(Task(0, 5, 2))
        with pytest.raises(ValueError, match="deadline"):
            session.advance_to(5.0)

    def test_advance_rejects_nonpositive_work(self, static_power):
        session = ScheduleSession(2, static_power)
        h = session.add_task(Task(0, 10, 4))
        with pytest.raises(ValueError, match="positive"):
            session.advance_to(1.0, works={h: 0.0})

    def test_bad_method(self, static_power):
        with pytest.raises(ValueError, match="session method"):
            ScheduleSession(2, static_power, method="der_scalar")

    def test_bad_insertion_index(self, static_power):
        session = ScheduleSession(2, static_power)
        with pytest.raises(IndexError):
            session.add_task(Task(0, 10, 4), index=3)


class TestOnlineEdgeCases:
    """Edge cases the batch rebuild hid, each against the rebuild oracle."""

    def _both(self, tasks, m, power, method="der"):
        on = OnlineSubintervalScheduler(tasks, m, power, method=method).run()
        oracle = online_rebuild(tasks, m, power, method=method)
        return on, oracle

    @pytest.mark.parametrize("method", ["even", "der"])
    def test_simultaneous_arrivals(self, method, static_power):
        # three tasks share one release instant, two more arrive later —
        # one re-plan must admit a whole batch of arrivals at once
        tasks = TaskSet.from_tuples(
            [(0, 10, 4), (0, 8, 5), (0, 12, 3), (5, 15, 4), (5, 11, 2)]
        )
        on, oracle = self._both(tasks, 2, static_power, method)
        assert on.replans == oracle.replans == 2
        assert abs(on.energy - oracle.energy) <= 1e-9
        assert list(on.schedule) == list(oracle.schedule)

    @pytest.mark.parametrize("method", ["even", "der"])
    def test_zero_laxity_arrival(self, method, static_power):
        # C = D - R: the arrival needs its whole window at f >= 1
        tasks = TaskSet.from_tuples([(0, 10, 4), (2, 6, 4.0), (3, 12, 2)])
        on, oracle = self._both(tasks, 2, static_power, method)
        assert abs(on.energy - oracle.energy) <= 1e-9
        assert list(on.schedule) == list(oracle.schedule)
        assert_valid(on.schedule, tol=1e-6)

    @pytest.mark.parametrize("method", ["even", "der"])
    def test_arrival_on_existing_boundary(self, method, static_power):
        # the second task's release and deadline both coincide with
        # boundaries the first two tasks already created
        tasks = TaskSet.from_tuples([(0, 8, 3), (4, 12, 4), (4, 8, 1.5)])
        on, oracle = self._both(tasks, 2, static_power, method)
        assert abs(on.energy - oracle.energy) <= 1e-9
        assert list(on.schedule) == list(oracle.schedule)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_streams_match_oracle(self, seed, static_power):
        tasks, power = random_instance(seed, n=15)
        on, oracle = self._both(tasks, 4, power)
        assert on.replans == oracle.replans
        assert abs(on.energy - oracle.energy) <= 1e-9
        assert list(on.schedule) == list(oracle.schedule)
        # the session engine must actually skip work
        assert on.touched_subintervals < on.total_subintervals
        assert oracle.touched_subintervals == oracle.total_subintervals


class TestOnlineResultCaching:
    def test_energy_cached(self, static_power):
        tasks = TaskSet.from_tuples([(0, 10, 4), (2, 8, 5)])
        res = OnlineSubintervalScheduler(tasks, 2, static_power).run()
        assert "energy" not in vars(res)
        first = res.energy
        # cached_property memoizes into the instance dict; later reads are
        # served from the cache, not re-integrated from the schedule
        assert vars(res)["energy"] == first
        assert res.energy == res.schedule.total_energy()
