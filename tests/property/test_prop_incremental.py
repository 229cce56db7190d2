"""Property tests: the incremental session always equals a batch rebuild.

Randomized arrival / completion / advance streams are replayed through a
:class:`~repro.core.incremental.ScheduleSession`; after every delta the
session's plan must match a fresh :class:`SubintervalScheduler` built over
the session's current rows — bit-for-bit on boundaries, coverage and the
allocation matrix, and exactly on final energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScheduleSession, SubintervalScheduler, Task
from repro.sim import assert_valid
from tests.oracles import batch_oracle

from .strategies import cores_strategy, power_strategy, tasks_strategy

method_strategy = st.sampled_from(["even", "der"])


def _assert_session_matches_batch(session):
    batch = SubintervalScheduler(session.taskset(), session.m, session.power)
    plan = batch.plan(session.method)
    np.testing.assert_array_equal(plan.timeline.boundaries, session.boundaries)
    np.testing.assert_array_equal(plan.timeline.coverage, session._cov)
    np.testing.assert_array_equal(plan.x, session._x)
    assert session.energy == batch.final(session.method).energy


@given(tasks_strategy(min_size=2, max_size=8), cores_strategy, power_strategy(), method_strategy)
@settings(max_examples=40, deadline=None)
def test_arrival_stream_matches_batch(tasks, m, power, method):
    """Adding tasks one by one is the same as planning them all at once."""
    session = ScheduleSession(m, power, method=method)
    for task in tasks:
        session.add_task(task)
        _assert_session_matches_batch(session)


@given(
    tasks_strategy(min_size=3, max_size=8),
    cores_strategy,
    power_strategy(),
    method_strategy,
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_mixed_stream_matches_batch(tasks, m, power, method, rnd):
    """Interleaved arrivals and removals stay equal to the batch plan."""
    session = ScheduleSession(m, power, method=method)
    live = []
    for task in tasks:
        live.append(session.add_task(task))
        if len(live) > 1 and rnd.random() < 0.4:
            victim = live.pop(rnd.randrange(len(live)))
            if rnd.random() < 0.5:
                session.complete_task(victim)
            else:
                session.remove_task(victim)
        if not session.is_empty:
            _assert_session_matches_batch(session)


@given(
    tasks_strategy(min_size=2, max_size=8),
    cores_strategy,
    power_strategy(),
    method_strategy,
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_insertion_at_any_row_matches_batch(tasks, m, power, method, rnd):
    """Arrivals spliced in at any row, first and middle included, with
    removals between them, equal the batch plan over the rows in order."""
    session = ScheduleSession(m, power, method=method)
    for task in tasks:
        session.add_task(task, index=rnd.randint(0, len(session)))
        _assert_session_matches_batch(session)
        if len(session) > 1 and rnd.random() < 0.3:
            session.remove_task(rnd.choice(session.handles))
            _assert_session_matches_batch(session)


@given(tasks_strategy(min_size=2, max_size=6), cores_strategy, power_strategy(), method_strategy)
@settings(max_examples=30, deadline=None)
def test_advance_matches_batch(tasks, m, power, method):
    """Re-anchoring at a mid-stream instant equals a batch plan over the
    re-anchored rows."""
    session = ScheduleSession(m, power, method=method)
    for task in tasks:
        session.add_task(task)
    # pick an instant strictly before every deadline
    earliest_deadline = float(np.min(session.taskset().deadlines))
    t = earliest_deadline - 0.25
    if t <= float(np.min(session.taskset().releases)):
        return
    session.advance_to(t)
    _assert_session_matches_batch(session)


@given(tasks_strategy(min_size=1, max_size=8), cores_strategy, power_strategy(), method_strategy)
@settings(max_examples=30, deadline=None)
def test_session_result_is_valid(tasks, m, power, method):
    """The materialized schedule is feasible and completes all work."""
    session = ScheduleSession(m, power, method=method, tasks=tasks)
    res = session.result()
    assert_valid(res.schedule, tol=1e-6)
    batch = batch_oracle(session).final(method)
    assert res.energy == batch.energy
    assert list(res.schedule) == list(batch.schedule)


@given(tasks_strategy(min_size=2, max_size=8), cores_strategy, power_strategy(), method_strategy)
@settings(max_examples=30, deadline=None)
def test_rebuilt_session_forgets_history(tasks, m, power, method):
    """A session that added-then-removed extra tasks equals one that never
    saw them (no numerical residue from the splices)."""
    session = ScheduleSession(m, power, method=method)
    keep = [session.add_task(t) for t in tasks]
    ghost = session.add_task(Task(0.0, float(np.max(tasks.deadlines)), 0.5))
    session.remove_task(ghost)
    fresh = ScheduleSession(m, power, method=method, tasks=tasks)
    np.testing.assert_array_equal(session.boundaries, fresh.boundaries)
    np.testing.assert_array_equal(session._x, fresh._x)
    assert session.energy == fresh.energy
    assert len(keep) == len(tasks)
