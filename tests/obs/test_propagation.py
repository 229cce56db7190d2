"""Trace propagation: service → pool → engine → solver, across crashes.

The worker boundary is the interesting part: spans created inside a
(thread- or process-pool) worker ride the result dict home and are
stitched back onto the request's trace.  A crashed worker takes its
buffered spans with it, so the dispatcher reconstructs the lost attempt
as a ``pool.attempt`` span — visible on the *same* trace as the retry
that replaced it.
"""

import asyncio
import time

from repro.obs import context as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import group_traces, load_spans
from repro.service import ServiceConfig
from repro.service.config import RetryPolicy
from repro.service.faults import FaultInjector, FaultSpec
from repro.service.http11 import request_once
from repro.service.pool import SolveDispatcher
from tests.conftest import run_with_service

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(port=0, workers=0, log_interval=0, **kwargs)


def _carrier(tid: str = None) -> dict:
    return {
        "trace_id": tid or obs.new_trace_id(),
        "parent": "ab" * 8,
        "enqueued_at": time.time(),
    }


def _job(i: int = 0, **over) -> dict:
    rows = [[r, d, c + i, f"t{k}"] for k, (r, d, c) in enumerate(_TASKS)]
    return {
        "tasks": rows,
        "m": 2,
        "alpha": 3.0,
        "static": 0.1,
        "method": "der",
        "include_schedule": False,
        "_trace": _carrier(),
        **over,
    }


class TestServiceSpanTrees:
    def test_schedule_request_exports_complete_chain(self, tmp_path):
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
            )
            assert status == 200 and "_spans" not in body

        run_with_service(scenario, _config(trace_path=str(path)))
        traces = group_traces(load_spans(path))
        (tv,) = traces
        names = tv.names
        for required in (
            "service.request", "cache.probe", "batch.queue",
            "pool.solve", "engine.solve", "solver:subinterval-der",
        ):
            assert required in names, f"missing {required}: {names}"
        # parentage: solver under engine under pool under the root
        root = tv.root
        assert root["attrs"]["path"] == "/schedule"
        assert root["attrs"]["http_status"] == 200
        pool = tv.by_name("pool.solve")[0]
        engine = tv.by_name("engine.solve")[0]
        solver = tv.by_name("solver:subinterval-der")[0]
        assert pool["parent_id"] == root["span_id"]
        assert engine["parent_id"] == pool["span_id"]
        assert solver["parent_id"] == engine["span_id"]
        assert tv.by_name("batch.queue")[0]["parent_id"] == root["span_id"]
        assert tv.is_scheduled() and tv.is_complete()

    def test_client_trace_id_header_is_honored(self, tmp_path):
        path = tmp_path / "out.jsonl"
        tid = "fe" * 16

        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
                headers={"x-trace-id": tid},
            )

        run_with_service(scenario, _config(trace_path=str(path)))
        spans = load_spans(path)
        assert spans and all(sp["trace_id"] == tid for sp in spans)

    def test_cache_hit_trace_has_probe_but_no_solve(self, tmp_path):
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            payload = {"tasks": _TASKS, "m": 2, "method": "der"}
            await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", payload
            )
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", payload
            )
            assert status == 200 and body["cache_hit"] is True
            assert "_spans" not in body

        run_with_service(scenario, _config(trace_path=str(path)))
        traces = group_traces(load_spans(path))
        assert len(traces) == 2
        hit = [tv for tv in traces if tv.cache_hit()]
        assert len(hit) == 1
        assert "pool.solve" not in hit[0].names
        assert not hit[0].is_scheduled()

    def test_optimal_request_is_traced_too(self, tmp_path):
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/optimal",
                {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1},
            )
            assert status == 200 and "_spans" not in body

        run_with_service(scenario, _config(trace_path=str(path)))
        (tv,) = group_traces(load_spans(path))
        assert {"service.request", "pool.solve", "engine.solve"} <= tv.names
        assert any(n.startswith("solver:") for n in tv.names)

    def test_no_trace_path_exports_nothing_but_feeds_stage_metrics(self):
        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
            )
            snap = service.metrics.snapshot()
            stage = [
                k for k in snap["histograms"] if k.startswith("stage_ms:")
            ]
            assert "stage_ms:engine.solve" in stage
            assert "stage_ms:service.request" in stage
            assert service._exporter is None

        run_with_service(scenario, _config())

    def test_sampling_zero_exports_no_spans(self, tmp_path):
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
            )

        run_with_service(scenario, _config(trace_path=str(path), trace_sample=0.0))
        assert load_spans(path) == []


class TestCrashRetryPropagation:
    def _chaotic(self, retries: int) -> tuple[SolveDispatcher, MetricsRegistry]:
        metrics = MetricsRegistry()
        return (
            SolveDispatcher(
                0,
                metrics=metrics,
                retry=RetryPolicy(max_retries=retries, backoff_base=0.001),
                injector=FaultInjector(FaultSpec.parse("kill=1.0,seed=3")),
            ),
            metrics,
        )

    def test_retry_links_crashed_attempt_to_same_trace(self):
        dispatcher, metrics = self._chaotic(retries=1)
        jobs = [_job(i) for i in range(3)]
        results = asyncio.run(dispatcher.solve_batch(jobs))
        assert metrics.counter("job_retries").value == 3
        for job, result in zip(jobs, results):
            assert "error" not in result
            spans = result["_spans"]
            tid = job["_trace"]["trace_id"]
            assert all(sp["trace_id"] == tid for sp in spans)
            attempts = [sp for sp in spans if sp["name"] == "pool.attempt"]
            assert len(attempts) == 1
            assert attempts[0]["status"] == "error"
            assert attempts[0]["attrs"]["outcome"] == "crashed"
            assert attempts[0]["attrs"]["attempt"] == 1
            # the successful retry's worker spans are on the same trace
            names = {sp["name"] for sp in spans}
            assert {"batch.queue", "pool.solve", "engine.solve"} <= names

    def test_abandoned_jobs_carry_marked_attempt_spans(self):
        dispatcher, metrics = self._chaotic(retries=0)
        jobs = [_job(i) for i in range(2)]
        results = asyncio.run(dispatcher.solve_batch(jobs))
        assert metrics.counter("jobs_abandoned").value == 2
        for job, result in zip(jobs, results):
            assert result["abandoned"] is True
            (attempt,) = result["_spans"]
            assert attempt["name"] == "pool.attempt"
            assert attempt["attrs"]["outcome"] == "abandoned"
            assert attempt["trace_id"] == job["_trace"]["trace_id"]

    def test_untraced_jobs_survive_crashes_without_span_sidecars(self):
        dispatcher, _ = self._chaotic(retries=1)
        jobs = [_job(i) for i in range(2)]
        for job in jobs:
            job.pop("_trace")
        results = asyncio.run(dispatcher.solve_batch(jobs))
        for result in results:
            assert "error" not in result
            assert "_spans" not in result

    def test_end_to_end_crash_retry_trace_over_http(self, tmp_path):
        """Acceptance: crash → retry keeps the whole story on one trace."""
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "m": 2, "method": "der"},
            )
            assert status == 200
            assert "error" not in body

        run_with_service(
            scenario,
            _config(
                trace_path=str(path),
                faults="kill=1.0,seed=3",
                retry_max=1,
                retry_backoff=0.001,
            ),
        )
        (tv,) = group_traces(load_spans(path))
        attempts = tv.by_name("pool.attempt")
        assert len(attempts) == 1
        assert attempts[0]["attrs"]["outcome"] == "crashed"
        assert tv.is_complete()  # the retry completed the chain
