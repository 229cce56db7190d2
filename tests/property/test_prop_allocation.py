"""Property tests: allocation plans always satisfy their constraints."""

import numpy as np
from hypothesis import given, settings

from repro.core import Timeline, build_allocation_plan, solve_ideal
from tests.oracles import scalar_plan

from .strategies import cores_strategy, power_strategy, tasks_strategy


@given(tasks_strategy(), cores_strategy, power_strategy())
@settings(max_examples=60, deadline=None)
def test_der_plan_feasible(tasks, m, power):
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, power)
    plan = build_allocation_plan(tl, m, "der", ideal=ideal)
    plan.check()  # raises on violation
    # light subintervals grant the full length
    for sub in tl.light(m):
        for tid in sub.task_ids:
            assert plan.x[tid, sub.index] == sub.length


@given(tasks_strategy(), cores_strategy)
@settings(max_examples=60, deadline=None)
def test_even_plan_feasible(tasks, m):
    tl = Timeline(tasks)
    plan = build_allocation_plan(tl, m, "even")
    plan.check()
    for sub in tl.heavy(m):
        vals = plan.x[list(sub.task_ids), sub.index]
        np.testing.assert_allclose(vals, m * sub.length / sub.n_overlapping)


@given(tasks_strategy(), cores_strategy, power_strategy())
@settings(max_examples=60, deadline=None)
def test_der_allocates_whenever_ideal_works(tasks, m, power):
    """No starvation: if the ideal schedule executes a task in a heavy
    subinterval, the DER plan gives that task positive time there."""
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, power)
    plan = build_allocation_plan(tl, m, "der", ideal=ideal)
    o = ideal.subinterval_times(tl)
    for sub in tl.heavy(m):
        for tid in sub.task_ids:
            if o[tid, sub.index] > 1e-9:
                assert plan.x[tid, sub.index] > 0.0


@given(tasks_strategy(), cores_strategy, power_strategy())
@settings(max_examples=60, deadline=None)
def test_available_time_supports_work(tasks, m, power):
    """Every task's available time is positive (so a frequency exists)."""
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, power)
    for method, kw in (("even", {}), ("der", {"ideal": ideal})):
        plan = build_allocation_plan(tl, m, method, **kw)
        assert np.all(plan.available_times > 0)


@given(tasks_strategy(max_size=14), cores_strategy, power_strategy())
@settings(max_examples=80, deadline=None)
def test_vectorized_matches_scalar_reference(tasks, m, power):
    """The batched assembly agrees with the per-subinterval loop to 1e-9."""
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, power)
    for method, kw in (("even", {}), ("der", {"ideal": ideal})):
        vec = build_allocation_plan(tl, m, method, **kw)
        ref = scalar_plan(tl, m, method, **kw)
        np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-12)


@given(tasks_strategy(), cores_strategy, power_strategy())
@settings(max_examples=60, deadline=None)
def test_no_overlapped_subinterval_starved(tasks, m, power):
    """Every subinterval with overlapping tasks hands out some capacity."""
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, power)
    for method, kw in (("even", {}), ("der", {"ideal": ideal})):
        plan = build_allocation_plan(tl, m, method, **kw)
        totals = plan.x.sum(axis=0)
        assert np.all(totals[tl.overlap_counts > 0] > 0)
