"""Unit tests for NEC metrics and aggregation."""

import pytest

from repro.analysis import NecSample, SERIES, aggregate, nec


class TestNec:
    def test_ratio(self):
        assert nec(12.0, 10.0) == pytest.approx(1.2)

    def test_rejects_nonpositive_optimal(self):
        with pytest.raises(ValueError):
            nec(1.0, 0.0)


class TestNecSample:
    def test_construction(self):
        s = NecSample(optimal_energy=10.0, values={"F2": 1.05})
        assert s["F2"] == 1.05

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            NecSample(optimal_energy=10.0, values={"F2": -0.5})

    def test_rejects_nonpositive_optimal(self):
        with pytest.raises(ValueError):
            NecSample(optimal_energy=0.0, values={})


class TestAggregate:
    def _samples(self):
        return [
            NecSample(10.0, {"F1": 1.2, "F2": 1.0}, extra={"miss": 0.0}),
            NecSample(12.0, {"F1": 1.4, "F2": 1.1}, extra={"miss": 1.0}),
        ]

    def test_mean_std(self):
        agg = aggregate(self._samples())
        assert agg.n == 2
        assert agg.mean["F1"] == pytest.approx(1.3)
        assert agg.std["F1"] == pytest.approx(0.1414, abs=1e-3)
        assert agg.minimum["F2"] == 1.0
        assert agg.maximum["F2"] == 1.1

    def test_extra_mean(self):
        agg = aggregate(self._samples())
        assert agg.extra_mean["miss"] == pytest.approx(0.5)

    def test_single_sample_std_zero(self):
        agg = aggregate([NecSample(10.0, {"F2": 1.0})])
        assert agg.std["F2"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_row_ordering(self):
        agg = aggregate(
            [NecSample(1.0, {s: float(i) for i, s in enumerate(SERIES)})]
        )
        assert agg.row() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_getitem(self):
        agg = aggregate([NecSample(1.0, {"F2": 1.23})])
        assert agg["F2"] == pytest.approx(1.23)
