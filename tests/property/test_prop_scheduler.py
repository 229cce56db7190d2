"""Property tests: the full pipeline on arbitrary instances.

These are the paper's structural guarantees, checked on hypothesis-generated
task sets: every produced schedule is collision-free, meets all execution
requirements inside windows, and obeys the documented energy orderings.
"""

import pytest
from hypothesis import given, settings

from repro.core import SubintervalScheduler
from repro.sim import assert_valid, execute_schedule

from .strategies import cores_strategy, power_strategy, tasks_strategy


@given(tasks_strategy(max_size=8), cores_strategy, power_strategy())
@settings(max_examples=40, deadline=None)
def test_final_schedules_always_valid(tasks, m, power):
    sch = SubintervalScheduler(tasks, m, power)
    for method in ("even", "der"):
        res = sch.final(method)
        assert_valid(res.schedule, tol=1e-6)


@given(tasks_strategy(max_size=8), cores_strategy, power_strategy())
@settings(max_examples=40, deadline=None)
def test_intermediate_schedules_always_valid(tasks, m, power):
    sch = SubintervalScheduler(tasks, m, power)
    for method in ("even", "der"):
        res = sch.intermediate(method)
        assert_valid(res.schedule, tol=1e-6)


@given(tasks_strategy(max_size=8), cores_strategy, power_strategy())
@settings(max_examples=40, deadline=None)
def test_refinement_never_hurts(tasks, m, power):
    """E^F1 <= E^I1 and E^F2 <= E^I2 (paper §V)."""
    sch = SubintervalScheduler(tasks, m, power)
    assert sch.final("even").energy <= sch.intermediate("even").energy * (1 + 1e-9)
    assert sch.final("der").energy <= sch.intermediate("der").energy * (1 + 1e-9)


@given(tasks_strategy(max_size=8), cores_strategy, power_strategy())
@settings(max_examples=40, deadline=None)
def test_ideal_lower_bounds_intermediates_at_zero_static(tasks, m, power):
    """With p0 = 0 the ideal (unlimited cores) lower-bounds everything."""
    if power.static != 0.0:
        power = power.with_static(0.0)
    sch = SubintervalScheduler(tasks, m, power)
    ideal = sch.ideal_energy
    for res in sch.run_all().values():
        assert res.energy >= ideal * (1 - 1e-9)


@given(tasks_strategy(max_size=6), cores_strategy, power_strategy())
@settings(max_examples=25, deadline=None)
def test_analytic_equals_replayed_energy(tasks, m, power):
    sch = SubintervalScheduler(tasks, m, power)
    for res in sch.run_all().values():
        rep = execute_schedule(res.schedule)
        assert rep.total_energy == pytest.approx(res.energy, rel=1e-7)
        assert rep.all_deadlines_met


@given(tasks_strategy(max_size=8), power_strategy())
@settings(max_examples=30, deadline=None)
def test_enough_cores_reaches_ideal(tasks, power):
    """With m >= n every subinterval is light: final == ideal."""
    sch = SubintervalScheduler(tasks, len(tasks), power)
    assert sch.final("der").energy == pytest.approx(sch.ideal_energy, rel=1e-9)
    assert sch.final("even").energy == pytest.approx(sch.ideal_energy, rel=1e-9)
