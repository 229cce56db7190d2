"""Property tests: flow realization against the scheduling polytope."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SubintervalScheduler, Task, TaskSet, Timeline
from repro.core.wrap_schedule import wrap_schedule
from repro.optimal import realize_demands
from repro.power import PolynomialPower
from tests.oracles import realize_demands_dinic

from .strategies import cores_strategy, power_strategy, tasks_strategy


@st.composite
def _demand_instance(draw):
    """A task set and per-task demands, on a coarse grid or in floats.

    On the grid, times are multiples of 0.5 and demands are quarters of
    their windows, so windows share boundaries and demands meet capacities
    exactly; in floats they almost never do.
    """
    if draw(st.booleans()):
        tasks = draw(tasks_strategy(max_size=10))
        fracs = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    else:
        rows = draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=20.0),
                    st.floats(min_value=0.05, max_value=10.0),
                ),
                min_size=1,
                max_size=10,
            )
        )
        tasks = TaskSet([Task(r, r + w, 1.0) for r, w in rows])
        fracs = st.floats(min_value=0.0, max_value=1.0)
    demands = np.array([draw(fracs) for _ in range(len(tasks))]) * tasks.windows
    return tasks, draw(st.integers(min_value=1, max_value=4)), demands


@given(tasks_strategy(max_size=7), cores_strategy, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_scaled_even_plan_demands_always_feasible(tasks, m, scale):
    """Any allocation plan's row sums are feasible demands (and so is any
    downscaling of them)."""
    sch = SubintervalScheduler(tasks, m, PolynomialPower(3.0, 0.1))
    demands = sch.plan("even").available_times * scale
    real = realize_demands(tasks, m, demands)
    assert real.feasible
    np.testing.assert_allclose(real.x.sum(axis=1), demands, rtol=1e-7, atol=1e-9)


@given(tasks_strategy(max_size=7), cores_strategy, power_strategy())
@settings(max_examples=30, deadline=None)
def test_realized_x_within_polytope_and_packable(tasks, m, power):
    sch = SubintervalScheduler(tasks, m, power)
    demands = sch.plan("der").available_times
    real = realize_demands(tasks, m, demands)
    assert real.feasible
    tl = Timeline(tasks)
    assert np.all(real.x <= tl.lengths[None, :] * (1 + 1e-9))
    assert np.all(real.x.sum(axis=0) <= m * tl.lengths * (1 + 1e-9))
    # uncovered pairs carry no flow
    assert np.all(real.x[~tl.coverage] == 0.0)
    # Algorithm 1 accepts every subinterval's realization
    for sub in tl:
        alloc = {tid: float(real.x[tid, sub.index]) for tid in sub.task_ids}
        wrap_schedule(sub.start, sub.end, alloc, m)


@given(tasks_strategy(max_size=6), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_infeasible_iff_shortfall(tasks, m):
    """Demanding every task's full window: feasibility must agree with the
    reported shortfall."""
    real = realize_demands(tasks, m, tasks.windows)
    assert real.feasible == bool(np.all(real.shortfall < 1e-7))
    if not real.feasible:
        assert real.bottleneck_subintervals  # a congested region is named


@given(_demand_instance())
@settings(max_examples=200, deadline=None)
def test_augmenting_search_agrees_with_dinic(instance):
    """The augmenting search finds the Dinic oracle's maximum flow: the
    same verdict, flow value and min-cut subintervals, and an ``x`` inside
    the network's capacities."""
    tasks, m, demands = instance
    real = realize_demands(tasks, m, demands)
    oracle = realize_demands_dinic(tasks, m, demands)
    assert real.feasible == oracle.feasible
    value, expected = real.x.sum(), oracle.x.sum()
    assert abs(value - expected) <= 1e-9 * max(value, expected)
    assert real.bottleneck_subintervals == oracle.bottleneck_subintervals
    tl = Timeline(tasks)
    assert np.all(real.x >= 0.0) and np.all(real.x[~tl.coverage] == 0.0)
    assert np.all(real.x <= tl.lengths)
    assert np.all(real.x.sum(axis=0) <= m * tl.lengths * (1 + 1e-12))
