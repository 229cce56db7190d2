"""Unit tests for the observability registry."""

import math

import numpy as np
import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(data, q) == pytest.approx(np.percentile(data, q))

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.inc(3)
        g.dec()
        g.set(10.5)
        assert g.value == 10.5


class TestHistogram:
    def test_lifetime_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["p50"] == pytest.approx(2.5)

    def test_ring_keeps_recent_window(self):
        h = Histogram(window=4)
        for v in range(100):
            h.observe(float(v))
        # percentiles reflect only the last 4 samples (96..99)
        assert h.percentile(0) == 96.0
        assert h.percentile(100) == 99.0
        # lifetime stats still span everything
        assert h.count == 100
        assert h.min == 0.0

    def test_empty_snapshot_is_null_safe(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None
        assert snap["min"] is None

    def test_window_len_tracks_fill_then_saturates(self):
        h = Histogram(window=4)
        assert h.window_len == 0
        for i in range(1, 4):
            h.observe(float(i))
            assert h.window_len == i
        for v in range(100):
            h.observe(float(v))
        assert h.window_len == 4

    def test_wraparound_regression_exact_boundary(self):
        """Ring wraparound: percentiles cover exactly the last `window`.

        Regression for the off-by-one family of ring bugs: observe
        2×window samples so the write index wraps exactly back to slot 0,
        then one more so it sits mid-ring, and pin the percentile set to
        the true suffix at each step.
        """
        h = Histogram(window=4)
        for v in range(8):  # write index wraps to exactly 0
            h.observe(float(v))
        assert h.window_len == 4
        assert h.count == 8
        assert h.percentile(0) == 4.0
        assert h.percentile(50) == pytest.approx(5.5)
        assert h.percentile(100) == 7.0

        h.observe(100.0)  # index now mid-ring; window is 5,6,7,100
        assert h.percentile(0) == 5.0
        assert h.percentile(100) == 100.0
        assert h.count == 9
        # lifetime extrema still span everything ever observed
        assert h.min == 0.0
        assert h.max == 100.0

    def test_snapshot_reports_window_and_window_len(self):
        h = Histogram(window=4)
        for v in range(6):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["window"] == 4
        assert snap["window_len"] == 4
        assert snap["count"] == 6
        # percentile fields come from the ring, lifetime fields from totals
        assert snap["p50"] == pytest.approx(3.5)
        assert snap["min"] == 0.0


class TestRegistry:
    def test_lazy_instruments_are_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("requests_total:/schedule").inc(3)
        reg.gauge("in_progress").set(2)
        reg.histogram("latency_ms:/schedule").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"requests_total:/schedule": 3}
        assert snap["gauges"] == {"in_progress": 2}
        assert snap["histograms"]["latency_ms:/schedule"]["count"] == 1

    def test_summary_line_mentions_key_numbers(self):
        reg = MetricsRegistry()
        reg.counter("requests_total:/schedule").inc(7)
        reg.counter("shed_total").inc(2)
        reg.counter("cache_hits").inc(3)
        reg.counter("cache_misses").inc(1)
        line = reg.summary_line()
        assert "requests=7" in line
        assert "shed=2" in line
        assert "cache_hit_rate=0.750" in line
