"""Unit tests for the experiment engine."""

import numpy as np
import pytest

from repro.experiments import PointSpec, evaluate_taskset, run_point, run_replication, sweep
from repro.experiments.runner import _spawn_seeds
from tests.conftest import random_instance


class TestPointSpec:
    def test_power(self):
        spec = PointSpec(alpha=2.5, p0=0.1)
        p = spec.power()
        assert p.alpha == 2.5 and p.static == 0.1

    def test_draw_respects_n(self):
        spec = PointSpec(n_tasks=7)
        ts = spec.draw(np.random.default_rng(0))
        assert len(ts) == 7

    def test_draw_respects_intensity_range(self):
        spec = PointSpec(n_tasks=100, intensity_low=0.8)
        ts = spec.draw(np.random.default_rng(0))
        assert np.all(ts.intensities >= 0.8 - 1e-9)


class TestEvaluate:
    def test_series_present_and_sane(self):
        tasks, power = random_instance(0, n=10)
        sample = evaluate_taskset(tasks, 4, power)
        assert set(sample.values) == {"Idl", "I1", "F1", "I2", "F2"}
        # heuristics are at least optimal (>= 1 up to solver tolerance)
        for k in ("I1", "F1", "I2", "F2"):
            assert sample.values[k] >= 1.0 - 1e-6

    def test_ordering_relations(self):
        tasks, power = random_instance(1, n=14)
        s = evaluate_taskset(tasks, 4, power)
        assert s.values["F1"] <= s.values["I1"] + 1e-9
        assert s.values["F2"] <= s.values["I2"] + 1e-9


class TestSolveExact:
    def test_cold_and_bit_equal_to_solve_optimal(self):
        from repro.engine import Platform, SolveRequest
        from repro.experiments.runner import solve_exact
        from repro.optimal import solve_optimal

        tasks, power = random_instance(2, n=12)
        res = solve_exact(SolveRequest(tasks=tasks, platform=Platform(m=4, power=power)))
        assert not res.extras["warm_started"]
        assert res.schedule is None  # the NEC needs the energy only
        cold = solve_optimal(tasks, 4, power)
        assert res.energy == cold.energy
        np.testing.assert_array_equal(res.extras["available_times"], cold.available_times)


class TestReplication:
    def test_deterministic(self):
        spec = PointSpec(n_tasks=8)
        a = run_replication(spec, 42)
        b = run_replication(spec, 42)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        spec = PointSpec(n_tasks=8)
        a = run_replication(spec, 1)
        b = run_replication(spec, 2)
        assert a.values != b.values


class TestRunPoint:
    def test_aggregation(self):
        spec = PointSpec(n_tasks=8, p0=0.1)
        agg = run_point(spec, reps=3, seed=0)
        assert agg.n == 3
        assert agg.mean["F2"] >= 1.0 - 1e-6

    def test_seed_spawning_deterministic(self):
        assert _spawn_seeds(7, 5) == _spawn_seeds(7, 5)
        assert _spawn_seeds(7, 5) != _spawn_seeds(8, 5)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_point(PointSpec(), reps=0)


class TestSweep:
    def test_sweep_result_structure(self):
        specs = [(0.0, PointSpec(n_tasks=6, p0=0.0)), (0.2, PointSpec(n_tasks=6, p0=0.2))]
        res = sweep("test", "p0", specs, reps=2, seed=0)
        assert res.x_values == (0.0, 0.2)
        assert set(res.series) == {"Idl", "I1", "F1", "I2", "F2"}
        assert len(res.series["F2"]) == 2

    def test_format_contains_rows(self):
        specs = [(1, PointSpec(n_tasks=6))]
        res = sweep("My Figure", "x", specs, reps=2)
        out = res.format()
        assert "My Figure" in out
        assert "F2" in out

    def test_csv_and_svg(self):
        specs = [(1, PointSpec(n_tasks=6)), (2, PointSpec(n_tasks=6))]
        res = sweep("fig", "x", specs, reps=2)
        csv = res.to_csv()
        assert csv.splitlines()[0].startswith("x,")
        svg = res.to_svg()
        assert svg.startswith("<svg")
