"""Prometheus exposition rendering + the /metrics content negotiation."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import CONTENT_TYPE, parse_prometheus, render_prometheus
from repro.service.http11 import request_once
from tests.conftest import run_with_service

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]


def _loaded_registry() -> MetricsRegistry:
    reg = MetricsRegistry(histogram_window=4)
    reg.counter("requests_total:/schedule").inc(3)
    reg.counter("responses:/schedule:200").inc(2)
    reg.counter("cache_hits").inc()
    reg.gauge("in_progress").set(2)
    for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):  # wraps the window of 4
        reg.histogram("latency_ms:/schedule").observe(v)
    return reg


class TestRenderer:
    def test_colon_convention_becomes_labels(self):
        fams = parse_prometheus(render_prometheus(_loaded_registry().snapshot()))
        assert fams["repro_requests_total"]["samples"][
            'repro_requests_total{path="/schedule"}'
        ] == 3
        assert fams["repro_responses_total"]["samples"][
            'repro_responses_total{path="/schedule",status="200"}'
        ] == 2

    def test_counters_get_total_suffix(self):
        fams = parse_prometheus(render_prometheus(_loaded_registry().snapshot()))
        assert "repro_cache_hits_total" in fams
        for fam, data in fams.items():
            if data["type"] == "counter":
                assert fam.endswith("_total")

    def test_histogram_summary_and_window_len(self):
        fams = parse_prometheus(render_prometheus(_loaded_registry().snapshot()))
        fam = fams["repro_latency_ms"]
        assert fam["type"] == "summary"
        label = 'path="/schedule"'
        quantile = fam["samples"][
            f'repro_latency_ms{{{label},quantile="0.5"}}'
        ]
        # window of 4 after 6 observations → median of [3,4,5,6]
        assert quantile == 4.5
        assert fam["samples"][f"repro_latency_ms_count{{{label}}}"] == 6
        assert fam["samples"][f"repro_latency_ms_sum{{{label}}}"] == 21
        window = fams["repro_latency_ms_window_len"]
        assert window["type"] == "gauge"
        assert window["samples"][
            f"repro_latency_ms_window_len{{{label}}}"
        ] == 4

    def test_every_histogram_family_has_window_len(self):
        reg = _loaded_registry()
        reg.histogram("stage_ms:engine.solve").observe(1.5)
        fams = parse_prometheus(render_prometheus(reg.snapshot()))
        summaries = [f for f, d in fams.items() if d["type"] == "summary"]
        assert summaries
        for fam in summaries:
            assert f"{fam}_window_len" in fams

    def test_extra_gauges_and_escaping(self):
        text = render_prometheus(
            MetricsRegistry().snapshot(),
            extra_gauges={"uptime_seconds": 12.5, 'odd:/we"ird': 1},
        )
        fams = parse_prometheus(text)
        assert fams["repro_uptime_seconds"]["samples"][
            "repro_uptime_seconds"
        ] == 12.5
        assert 'repro_odd{path="/we\\"ird"}' in fams["repro_odd"]["samples"]

    def test_empty_histogram_quantiles_are_nan_not_crash(self):
        reg = MetricsRegistry()
        reg.histogram("latency_ms:/x")  # created, never observed
        text = render_prometheus(reg.snapshot())
        assert 'quantile="0.5"} NaN' in text


class TestParser:
    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "# TYPE repro_x gauge\nrepro_x{shard=\"0\"} 1.2.3\n",
                "non-float",
            ),
            ('repro_x{shard="0"} 1\n', "before its TYPE"),
            (
                "# HELP repro_x a\n# HELP repro_x b\n# TYPE repro_x gauge\nrepro_x 1\n",
                "second HELP",
            ),
            (
                "# TYPE repro_x gauge\n# TYPE repro_x counter\nrepro_x 1\n",
                "second TYPE",
            ),
            ('# TYPE repro_x gauge\nrepro_x{shard="0" 1\n', "malformed sample"),
        ],
    )
    def test_rejects_malformed_exposition(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            parse_prometheus(text)


class TestContentNegotiation:
    def _fetch(self, accept: str | None):
        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
            )
            headers = {"Accept": accept} if accept else None
            return await request_once(
                "127.0.0.1", service.port, "GET", "/metrics",
                headers=headers,
            )

        return run_with_service(scenario)

    def test_json_remains_the_default(self):
        status, body = self._fetch(None)
        assert status == 200
        assert "text" not in body
        hist = body["metrics"]["histograms"]
        assert hist  # latency + stage histograms exist
        for snap in hist.values():
            assert "window_len" in snap and "window" in snap

    def test_accept_text_plain_returns_parseable_exposition(self):
        status, body = self._fetch("text/plain")
        assert status == 200
        # the client only wraps non-JSON content types in {"text": ...},
        # so this also proves the Content-Type header changed
        fams = parse_prometheus(body["text"])
        assert fams["repro_requests_total"]["samples"][
            'repro_requests_total{path="/schedule"}'
        ] >= 1
        # the traced request pipeline feeds stage histograms, and every
        # summary family carries its window_len gauge
        assert any(f.startswith("repro_stage_ms") for f in fams)
        for fam, data in fams.items():
            if data["type"] == "summary":
                assert f"{fam}_window_len" in fams
        assert fams["repro_uptime_seconds"]["samples"]["repro_uptime_seconds"] >= 0

    def test_openmetrics_accept_also_negotiates_text(self):
        status, body = self._fetch("application/openmetrics-text")
        assert status == 200
        assert "text" in body

    def test_content_type_constant_is_prometheus_0_0_4(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"
