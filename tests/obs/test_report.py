"""The ``repro trace`` analyzer: loading, grouping, stages, critical path."""

import json
import math

from repro.obs.report import (
    cache_attribution,
    critical_path,
    format_trace_report,
    group_traces,
    load_spans,
    stage_breakdown,
    trace_summary,
)

_T1 = "aa" * 16
_T2 = "bb" * 16
#: both spellings of the schedule route: the analyzer must count each
_PATHS = ("/schedule", "/v1/schedule")


def _sp(name, trace=_T1, span_id="s1", parent=None, start=0.0, dur=1.0, **attrs):
    return {
        "trace_id": trace,
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start": start,
        "dur_ms": dur,
        "status": "ok",
        "attrs": attrs,
    }


def _scheduled_trace(trace=_T1, base=100.0, solve_ms=8.0, path="/schedule"):
    """A complete service→pool→engine→solver tree plus queue wait."""
    return [
        _sp("service.request", trace, "r", None, base, 12.0,
            path=path, method="POST", http_status=200),
        _sp("cache.probe", trace, "c", "r", base, 0.05, hit=False),
        _sp("batch.queue", trace, "q", "r", base + 0.001, 2.0),
        _sp("pool.solve", trace, "p", "r", base + 0.003, 9.0),
        _sp("engine.solve", trace, "e", "p", base + 0.004, solve_ms,
            solver="subinterval-der"),
        _sp("solver:subinterval-der", trace, "s", "e", base + 0.005,
            solve_ms - 1.0),
    ]


def _hit_trace(trace=_T2, base=200.0, path="/schedule"):
    return [
        _sp("service.request", trace, "r2", None, base, 0.4,
            path=path, method="POST", http_status=200),
        _sp("cache.probe", trace, "c2", "r2", base, 0.05, hit=True),
    ]


class TestLoadSpans:
    def test_skips_blank_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = _sp("engine.solve")
        path.write_text(
            "\n".join(
                [
                    json.dumps(good),
                    "",
                    '{"torn": ',  # crashed writer
                    '"just a string"',  # json, but not a span
                    '{"name": "no-trace-id"}',
                    json.dumps(good),
                ]
            )
        )
        spans = load_spans(path)
        assert len(spans) == 2
        assert all(sp["name"] == "engine.solve" for sp in spans)


class TestTraceView:
    def test_root_prefers_service_request_over_other_orphans(self):
        for path in _PATHS:
            spans = _scheduled_trace(path=path)
            # an orphan whose parent was lost with a crashed worker
            spans.append(_sp("pool.attempt", _T1, "x", "gone", 100.0, 1.0))
            (tv,) = group_traces(spans)
            assert tv.root["name"] == "service.request"
            assert tv.is_scheduled() and tv.is_complete()

    def test_incomplete_when_worker_chain_is_missing(self):
        for path in _PATHS:
            spans = [
                s for s in _scheduled_trace(path=path)
                if s["name"] != "engine.solve"
            ]
            (tv,) = group_traces(spans)
            assert tv.is_scheduled()
            assert not tv.is_complete()

    def test_cache_hit_trace_is_not_scheduled(self):
        for path in _PATHS:
            (tv,) = group_traces(_hit_trace(path=path))
            assert tv.cache_hit()
            assert not tv.is_scheduled()

    def test_group_traces_orders_by_start(self):
        spans = _hit_trace() + _scheduled_trace()  # T2 starts later
        traces = group_traces(spans)
        assert [tv.trace_id for tv in traces] == [_T1, _T2]


class TestAggregation:
    def test_stage_breakdown_stats(self):
        spans = [_sp("engine.solve", dur=d, span_id=f"s{d}") for d in (2.0, 4.0)]
        stats = stage_breakdown(spans)["engine.solve"]
        assert stats["count"] == 2
        assert stats["mean"] == 3.0
        assert stats["p50"] == 3.0
        assert stats["max"] == 4.0

    def test_critical_path_descends_latest_finisher_with_self_time(self):
        (tv,) = group_traces(_scheduled_trace())
        path = critical_path(tv)
        # the probe and the queue wait ended before the next on-path
        # sibling began, so the request waited on them too
        assert [sp["name"] for sp, _ in path] == [
            "service.request",
            "cache.probe",
            "batch.queue",
            "pool.solve",
            "engine.solve",
            "solver:subinterval-der",
        ]
        # each link's self time = dur minus the union of its children
        self_by_name = {sp["name"]: self_ms for sp, self_ms in path}
        assert self_by_name["service.request"] == 0.95  # 12 - 9 - 2 - 0.05
        assert self_by_name["cache.probe"] == 0.05  # leaf
        assert self_by_name["batch.queue"] == 2.0  # leaf
        assert self_by_name["pool.solve"] == 1.0  # 9 - 8
        assert self_by_name["engine.solve"] == 1.0  # 8 - 7
        assert self_by_name["solver:subinterval-der"] == 7.0  # leaf

    def test_critical_path_skips_overlapping_children(self):
        base = 100.0
        spans = [
            _sp("service.request", _T1, "r", None, base, 10.0),
            _sp("a", _T1, "a", "r", base, 4.0),
            _sp("b", _T1, "b", "r", base + 0.001, 2.0),
            # starts 0.5 ms before a ends: concurrent with a, after b
            _sp("c", _T1, "c", "r", base + 0.0035, 4.5),
            # starts one ulp before c ends: a float tie, so sequential
            _sp("d", _T1, "d", "r", math.nextafter(base + 0.008, 0.0), 1.0),
        ]
        (tv,) = group_traces(spans)
        path = critical_path(tv)
        assert [sp["name"] for sp, _ in path] == ["service.request", "b", "c", "d"]
        # the children cover [0, 4] u [1, 3] u [3.5, 8] u [8, 9]: 9 of 10 ms
        assert path[0][1] == 1.0

    def test_cache_attribution_populations(self):
        for path in _PATHS:
            traces = group_traces(
                _scheduled_trace(path=path) + _hit_trace(path=path)
            )
            attr = cache_attribution(traces)
            assert attr["schedule_requests"] == 2
            assert attr["hits"] == 1 and attr["misses"] == 1
            assert attr["hit_rate"] == 0.5
            assert attr["hit_p50_ms"] == 0.4
            assert attr["miss_p50_ms"] == 12.0


class TestSummaryAndReport:
    def _spans(self, path):
        broken = [
            s
            for s in _scheduled_trace("cc" * 16, base=300.0, path=path)
            if s["name"] not in ("engine.solve", "solver:subinterval-der")
        ]
        return _scheduled_trace(path=path) + _hit_trace(path=path) + broken

    def test_trace_summary_counts_and_stages(self):
        for path in _PATHS:
            s = trace_summary(self._spans(path))
            assert s["traces"] == 3
            assert s["scheduled_traces"] == 2
            assert s["incomplete_traces"] == 1
            assert s["incomplete_trace_ids"] == ["cc" * 16]
            assert s["stages"]["solve"]["count"] == 1  # only the complete trace
            assert s["stages"]["queue/batch"]["count"] == 2
            assert s["stages"]["pack"]["count"] == 0  # include_schedule absent
            assert s["request_ms"]["count"] == 3
            assert s["cache"]["hits"] == 1

    def test_format_trace_report_mentions_everything(self):
        for path in _PATHS:
            text = format_trace_report(self._spans(path))
            assert "incomplete: 1" in text
            assert "per-stage latency" in text
            assert "queue/batch" in text
            assert "cache attribution: 1/3" in text
            assert "critical path of slowest trace" in text
            assert "solver:subinterval-der" in text

    def test_empty_export_degrades_gracefully(self):
        s = trace_summary([])
        assert s["spans"] == 0 and s["traces"] == 0
        assert s["slowest_trace"]["trace_id"] is None
        assert "spans: 0" in format_trace_report([])
