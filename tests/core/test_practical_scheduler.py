"""Unit tests for the discrete-frequency-aware (deployable) scheduler."""

import numpy as np
import pytest

from repro.core import PracticalScheduler, TaskSet
from repro.power import DiscreteFrequencySet, xscale_frequency_set
from repro.sim import ViolationKind, execute_schedule, validate_schedule
from repro.workloads import xscale_workload


@pytest.fixture
def fset():
    return xscale_frequency_set()


@pytest.fixture
def trace_tasks():
    rng = np.random.default_rng(8)
    return xscale_workload(rng, n_tasks=14)


class TestSchedule:
    def test_frequencies_are_operating_points(self, fset, trace_tasks):
        res = PracticalScheduler(trace_tasks, 4, fset).schedule("der")
        for seg in res.schedule:
            assert seg.frequency in fset.frequencies

    def test_valid_when_no_misses(self, fset, trace_tasks):
        res = PracticalScheduler(trace_tasks, 4, fset).schedule("der")
        if res.all_deadlines_met:
            assert validate_schedule(res.schedule, tol=1e-6) == []

    def test_replay_uses_table_power(self, fset, trace_tasks):
        res = PracticalScheduler(trace_tasks, 4, fset).schedule("der")
        rep = execute_schedule(res.schedule)
        assert rep.total_energy == pytest.approx(res.energy, rel=1e-9)

    def test_quantization_never_below_plan(self, fset, trace_tasks):
        res = PracticalScheduler(trace_tasks, 4, fset).schedule("der")
        ok = ~np.isin(np.arange(len(trace_tasks)), res.missed_tasks)
        assert np.all(res.frequencies[ok] >= res.planned_frequencies[ok] - 1e-9)

    def test_energy_at_least_continuous_plan(self, fset, trace_tasks):
        # quantization can only cost energy relative to the continuous plan
        cont = PracticalScheduler(trace_tasks, 4, fset).planner.final("der")
        disc = PracticalScheduler(trace_tasks, 4, fset).schedule("der")
        if disc.all_deadlines_met:
            assert disc.energy >= cont.energy * 0.8  # same order; table powers
                                                      # differ from the fit


class TestMisses:
    def test_overload_produces_misses_not_crashes(self, fset):
        # 8 maximally tight tasks on 2 cores: plans far above f_max
        tasks = TaskSet.from_tuples(
            [(0.0, 10.0, 10.0 * 1000.0)] * 8  # need 1000 MHz each, alone
        )
        res = PracticalScheduler(tasks, 2, fset).schedule("der")
        assert res.missed_tasks  # overload must be reported
        # missed tasks underperform: work mismatch flagged, nothing else broken
        issues = validate_schedule(res.schedule, check_completion=True)
        kinds = {v.kind for v in issues}
        assert kinds <= {ViolationKind.WORK_MISMATCH}

    def test_light_load_no_misses(self, fset):
        rng = np.random.default_rng(1)
        tasks = xscale_workload(rng, n_tasks=4)
        res = PracticalScheduler(tasks, 4, fset).schedule("der")
        assert res.all_deadlines_met


class TestValidation:
    def test_requires_continuous_fit(self, trace_tasks):
        bare = DiscreteFrequencySet(np.array([100.0, 400.0]), np.array([50.0, 200.0]))
        with pytest.raises(ValueError, match="continuous fit"):
            PracticalScheduler(trace_tasks, 4, bare)

    def test_even_method_supported(self, fset, trace_tasks):
        res = PracticalScheduler(trace_tasks, 4, fset).schedule("even")
        assert len(res.schedule) > 0
