"""Unit tests for the discrete/practical (XScale) evaluation."""

import numpy as np
import pytest

from repro.core import Schedule, Segment, TaskSet
from repro.experiments import discrete_evaluation, evaluate_practical
from repro.power import DiscreteFrequencySet, PolynomialPower, xscale_frequency_set
from repro.workloads import xscale_workload


@pytest.fixture
def fset():
    return xscale_frequency_set()


class TestDiscreteEvaluation:
    def _schedule(self, freq: float):
        ts = TaskSet.from_tuples([(0.0, 10.0, freq * 4)])
        segs = [Segment(0, 0, 0.0, 4.0, freq)]
        return Schedule(ts, 1, PolynomialPower(3.0, 0.0), segs)

    def test_quantizes_up_and_uses_table_power(self, fset):
        # planned 500 MHz -> runs at 600 MHz (400 mW)
        sched = self._schedule(500.0)
        ev = discrete_evaluation(sched, fset)
        work = 500.0 * 4
        assert ev.energy == pytest.approx(400.0 * work / 600.0)
        assert not ev.missed

    def test_exact_operating_point_unchanged(self, fset):
        sched = self._schedule(800.0)
        ev = discrete_evaluation(sched, fset)
        assert ev.energy == pytest.approx(900.0 * 4.0)

    def test_above_fmax_is_miss(self, fset):
        sched = self._schedule(1200.0)
        ev = discrete_evaluation(sched, fset)
        assert ev.missed
        assert ev.missed_tasks == (0,)
        # energy still accounted at f_max
        assert np.isfinite(ev.energy)

    def test_empty_schedule(self, fset):
        ts = TaskSet.from_tuples([(0.0, 10.0, 1.0)])
        sched = Schedule(ts, 1, PolynomialPower(3.0, 0.0), [])
        ev = discrete_evaluation(sched, fset)
        assert ev.energy == 0.0 and not ev.missed


class TestEvaluatePractical:
    def test_sample_structure(self, fset):
        rng = np.random.default_rng(3)
        tasks = xscale_workload(rng, n_tasks=10)
        sample = evaluate_practical(tasks, 4, fset)
        assert set(sample.values) == {"Idl", "I1", "F1", "I2", "F2"}
        assert set(sample.extra) == {
            "miss_Idl",
            "miss_I1",
            "miss_F1",
            "miss_I2",
            "miss_F2",
        }
        for v in sample.values.values():
            assert v > 0

    def test_requires_continuous_fit(self):
        rng = np.random.default_rng(3)
        tasks = xscale_workload(rng, n_tasks=5)
        bare = DiscreteFrequencySet(
            np.array([100.0, 400.0]), np.array([50.0, 200.0])
        )
        with pytest.raises(ValueError, match="continuous fit"):
            evaluate_practical(tasks, 4, bare)

    def test_light_load_no_misses(self, fset):
        rng = np.random.default_rng(0)
        tasks = xscale_workload(rng, n_tasks=4)  # fewer tasks than cores
        sample = evaluate_practical(tasks, 4, fset)
        assert all(v == 0.0 for k, v in sample.extra.items())

    def test_f2_beats_f1_under_contention(self, fset):
        rng = np.random.default_rng(12)
        tasks = xscale_workload(rng, n_tasks=25)
        sample = evaluate_practical(tasks, 4, fset)
        assert sample.values["F2"] <= sample.values["F1"] + 1e-9
