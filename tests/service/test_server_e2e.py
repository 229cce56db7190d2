"""End-to-end tests: real daemon on an ephemeral port, real HTTP clients.

Everything runs in-process (``workers=0`` solves in a thread executor)
except one test that exercises real pool worker processes.
Each test owns its event loop via ``asyncio.run``; the service binds
port 0 so tests parallelize safely.
"""

import asyncio
import json

import pytest

from repro.io import schedule_from_json
from repro.service import SchedulingService, ServiceConfig
from repro.obs.report import load_spans, trace_summary
from repro.service.http11 import HttpClient, HttpServer, Raw, request_once
from repro.service.loadgen import run_loadgen
from repro.service.protocol import EncodedResult
from repro.sim import validate_schedule
from tests.conftest import run_with_service

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]
_BASE = dict(port=0, workers=0, log_interval=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


def _schedule_payload(tasks=_TASKS, **over):
    return {"tasks": tasks, "m": 2, "alpha": 3.0, "static": 0.1,
            "method": "der", **over}


def _hold_dispatch(service) -> asyncio.Event:
    """Hold every batcher dispatch until the returned event is set."""
    release = asyncio.Event()
    inner = service.batcher._dispatch

    async def held(jobs):
        await release.wait()
        return await inner(jobs)

    service.batcher._dispatch = held
    return release


class TestScheduleEndpoint:
    def test_concurrent_clients_all_validate(self):
        """The acceptance e2e: concurrent clients, responses pass sim/validate."""

        async def scenario(service):
            async def one_client(seed):
                # distinct work per client so responses genuinely differ
                tasks = [[0.0, 10.0, 4.0 + seed], [1.0, 12.0, 3.0 + seed]]
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=tasks),
                )
                return status, body

            results = await asyncio.gather(*(one_client(s) for s in range(8)))
            for status, body in results:
                assert status == 200
                assert body["energy"] > 0
                assert body["kind"] == "S^F2"
                schedule = schedule_from_json(json.dumps(body["schedule"]))
                assert validate_schedule(schedule) == []

        run_with_service(scenario, _config(batch_max=8))

    def test_permuted_task_order_is_a_cache_hit_without_pool_entry(self):
        """Warm hits (incl. permutations) never touch the solve executor."""

        async def scenario(service):
            cold_status, cold = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            assert cold_status == 200 and cold["cache_hit"] is False
            dispatches_after_cold = service.dispatcher.dispatch_count
            assert dispatches_after_cold > 0

            permuted = [_TASKS[2], _TASKS[0], _TASKS[1]]
            for tasks in (_TASKS, permuted):
                status, warm = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=tasks),
                )
                assert status == 200
                assert warm["cache_hit"] is True
                assert warm["energy"] == cold["energy"]
            # the pool-call count is unchanged by warm traffic
            assert service.dispatcher.dispatch_count == dispatches_after_cold
            assert service.cache.hits == 2

        run_with_service(scenario)

    def test_identical_misses_share_one_solve(self, tmp_path):
        """Six concurrent misses for one plan make one batcher job."""
        trace = tmp_path / "out.jsonl"

        async def scenario(service):
            release = _hold_dispatch(service)
            jobs_before = service.batcher.jobs
            clients = [
                asyncio.ensure_future(request_once(
                    "127.0.0.1", service.port, "POST", "/v1/schedule",
                    _schedule_payload(),
                ))
                for _ in range(6)
            ]
            misses = service.metrics.counter("cache_misses")

            async def all_probed():
                while misses.value < 6:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(all_probed(), timeout=30)
            release.set()
            results = await asyncio.wait_for(asyncio.gather(*clients), timeout=30)
            assert service.batcher.jobs - jobs_before == 1
            assert [status for status, _ in results] == [200] * 6
            first = results[0][1]["result"]
            assert first["cache_hit"] is False
            assert all(body["result"] == first for _, body in results)
            counters = service.metrics.snapshot()["counters"]
            assert counters["coalesced_total"] == 5
            assert not service._solving  # the in-flight record is gone

        run_with_service(scenario, _config(trace_path=str(trace)))
        summary = trace_summary(load_spans(trace))
        assert summary["scheduled_traces"] == 1
        assert summary["incomplete_traces"] == 0

    def test_a_backlog_holds_no_task_per_miss(self):
        """Six distinct misses behind one held slot wait on futures: the
        one dispatch task is the only task on the solve path."""

        def on_solve_path(task) -> bool:
            name = task.get_coro().__qualname__
            return name.startswith(("MicroBatcher.", "SchedulingService."))

        async def scenario(service):
            assert service.batcher.slots == 1
            release = _hold_dispatch(service)
            clients = [
                asyncio.ensure_future(request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 1.0 + i]]),
                ))
                for i in range(6)
            ]
            misses = service.metrics.counter("cache_misses")

            async def all_probed():
                while misses.value < 6:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(all_probed(), timeout=30)
            solve_tasks = sum(map(on_solve_path, asyncio.all_tasks()))
            queued = service.batcher.pending
            release.set()
            results = await asyncio.wait_for(asyncio.gather(*clients), timeout=30)
            assert [status for status, _ in results] == [200] * 6
            assert (solve_tasks, queued, service.batcher.jobs) == (1, 5, 6)

        run_with_service(scenario)

    def test_a_hit_creates_no_task(self):
        """Keep-alive cache hits are answered in the connection's own task:
        the loop creates no task for them (no deadline task either)."""
        hits = 20

        async def scenario(service):
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                status, body = await client.request(
                    "POST", "/v1/schedule", _schedule_payload()
                )
                assert status == 200 and body["result"]["cache_hit"] is False
                loop.set_task_factory(counting_factory)
                try:
                    for _ in range(hits):
                        status, body = await client.request(
                            "POST", "/v1/schedule", _schedule_payload()
                        )
                        assert status == 200 and body["result"]["cache_hit"]
                finally:
                    loop.set_task_factory(None)
            finally:
                await client.close()
            assert created == []
            assert service.metrics.counter("cache_hits").value == hits

        run_with_service(scenario)

    def test_hit_answers_the_method_spelling_of_the_solve_that_filled_it(self):
        """`der` and `subinterval-der` share one entry, and its `method` is
        the spelling of the request whose solve filled it."""

        async def scenario(service):
            replies = []
            for method in ("der", "subinterval-der"):
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(method=method),
                )
                assert status == 200
                replies.append(body)
            first, second = replies
            assert [first["cache_hit"], second["cache_hit"]] == [False, True]
            for body in replies:
                assert body["method"] == "der"
                assert body["solver"] == "subinterval-der"

        run_with_service(scenario)

    def test_miss_past_its_deadline_leaves_its_solve_running(self):
        async def scenario(service):
            release = _hold_dispatch(service)
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            assert status == 504  # the solve it started is still held
            assert len(service._solving) == 1
            release.set()
            await asyncio.wait_for(
                asyncio.gather(*service._solving.values()), timeout=30
            )
            assert not service._solving
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            assert status == 200 and body["cache_hit"] is True
            assert service.batcher.jobs == 1

        run_with_service(scenario, _config(request_timeout=0.2))

    def test_online_method_reports_replans(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                _schedule_payload(method="online"),
            )
            assert status == 200
            assert body["kind"] == "online"
            assert body["replans"] >= 0

        run_with_service(scenario)

    def test_include_schedule_false_is_lighter(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                _schedule_payload(include_schedule=False),
            )
            assert status == 200
            assert "schedule" not in body
            # a later full request must NOT be served from the light entry
            status, full = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            assert status == 200 and "schedule" in full

        run_with_service(scenario)

    def test_malformed_requests_get_400(self):
        async def scenario(service):
            for payload in (
                {"m": 2},  # no tasks
                {"tasks": []},
                {"tasks": _TASKS, "method": "magic"},
                {"tasks": [[5.0, 1.0, 2.0]]},  # deadline < release
                {"tasks": _TASKS, "alpha": float("nan")},  # sent as NaN
            ):
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule", payload
                )
                assert status == 400
                assert "error" in body

        run_with_service(scenario)

    def test_process_pool_workers(self):
        """Real pool worker processes: pickled jobs, coalesced batches."""

        async def scenario(service):
            results = await asyncio.gather(*(
                request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 2.0 + i]]),
                )
                for i in range(4)
            ))
            assert [status for status, _ in results] == [200] * 4
            assert service.dispatcher.dispatch_count >= 1

        run_with_service(scenario, _config(workers=1, batch_max=8,
                               request_timeout=120.0))


class TestRobustness:
    def test_shedding_beyond_max_inflight(self):
        async def scenario(service):
            release = asyncio.Event()

            async def slow_dispatch(jobs):
                await release.wait()
                result = {"kind": "S^F2", "energy": 1.0, "n_tasks": 1, "m": 2,
                          "method": "der"}
                return [{"encoded": EncodedResult.of(result)} for _ in jobs]

            service.batcher._dispatch = slow_dispatch

            async def fire(i):
                return await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 1.0 + i]]),
                )

            clients = [asyncio.ensure_future(fire(i)) for i in range(6)]
            await asyncio.sleep(0.15)  # let 2 occupy the slots, rest arrive
            release.set()
            results = await asyncio.gather(*clients)
            statuses = sorted(status for status, _ in results)
            assert statuses.count(429) == 4
            assert statuses.count(200) == 2
            status, metrics = await request_once(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            assert metrics["metrics"]["counters"]["shed_total"] == 4

        run_with_service(scenario, _config(max_inflight=2, batch_max=1))

    def test_request_deadline_yields_504(self):
        async def scenario(service):
            release = _hold_dispatch(service)
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            assert status == 504
            assert "deadline" in body["error"]
            release.set()  # stop() waits for every dispatch

        run_with_service(scenario, _config(request_timeout=0.2, batch_max=1))

    def test_graceful_shutdown_loses_zero_accepted_requests(self):
        """stop() during in-flight traffic: every accepted request answers 200."""

        async def scenario(service):
            inner = service.batcher._dispatch

            async def slow_dispatch(jobs):
                await asyncio.sleep(0.2)  # keep requests in flight during stop()
                return await inner(jobs)

            service.batcher._dispatch = slow_dispatch

            async def fire(i):
                return await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 1.0 + i]]),
                )

            clients = [asyncio.ensure_future(fire(i)) for i in range(6)]
            await asyncio.sleep(0.1)  # all 6 accepted, none answered yet
            assert service._in_progress > 0
            await service.stop()  # drains before tearing down
            results = await asyncio.gather(*clients)
            assert [status for status, _ in results] == [200] * 6
            for _, body in results:
                assert body["energy"] > 0

        run_with_service(scenario, _config(batch_max=3))

    def test_rejects_new_requests_while_closing(self):
        # service.port raises after stop(); capture it before
        async def runner():
            async with SchedulingService(_config()) as service:
                port = service.port
            # the listener is closed: new connections must fail
            with pytest.raises((ConnectionError, OSError)):
                await request_once("127.0.0.1", port, "GET", "/healthz")

        asyncio.run(runner())


class TestRoutingAndMetrics:
    def test_unknown_route_404_wrong_method_405(self):
        async def scenario(service):
            status, _ = await request_once(
                "127.0.0.1", service.port, "GET", "/nope"
            )
            assert status == 404
            status, _ = await request_once(
                "127.0.0.1", service.port, "GET", "/schedule"
            )
            assert status == 405

        run_with_service(scenario)

    def test_invalid_json_body_400(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            body = b"{not json"
            writer.write(
                b"POST /schedule HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\nConnection: close\r\n\r\n" + body
            )
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()

        run_with_service(scenario)

    def test_bad_content_length_400_and_close(self):
        """A non-numeric or negative Content-Length is the client's error:
        a 400 bad_request that closes the connection, not a dropped socket."""

        async def scenario(service):
            for value in (b"abc", b"-5"):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(
                    b"POST /v1/schedule HTTP/1.1\r\nContent-Length: " + value
                    + b"\r\n\r\n{}"
                )
                await writer.drain()
                reply = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), (value, reply)
                assert b"\r\nConnection: close" in head
                assert json.loads(body)["error"]["code"] == "bad_request"

        run_with_service(scenario)

    def test_metrics_exposes_required_series(self):
        """Acceptance: request counts, shed, cache hit rate, percentiles."""

        async def scenario(service):
            for _ in range(3):  # 1 miss + 2 hits
                await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    _schedule_payload(),
                )
            status, m = await request_once(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            assert status == 200
            counters = m["metrics"]["counters"]
            assert counters["requests_total:/schedule"] == 3
            assert counters["responses:/schedule:200"] == 3
            assert counters.get("shed_total", 0) == 0
            assert counters["cache_hits"] == 2
            assert counters["cache_misses"] == 1
            assert m["cache"]["hit_rate"] == pytest.approx(2 / 3)
            lat = m["metrics"]["histograms"]["latency_ms:/schedule"]
            assert lat["count"] == 3
            for q in ("p50", "p95", "p99"):
                assert lat[q] is not None and lat[q] >= 0
            assert m["batcher"]["jobs"] == 1  # hits never reached the batcher
            assert m["uptime_s"] >= 0

        run_with_service(scenario)

    def test_healthz(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "GET", "/healthz"
            )
            assert status == 200
            assert body["status"] == "ok"
            assert "version" in body

        run_with_service(scenario)


class TestAdmitAndOptimal:
    def test_admission_is_stateful_until_reset(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                # 2 cores at f_max=1: three full-window unit-intensity tasks
                # cannot all fit, so the third admission must be refused
                accepted = []
                for _ in range(3):
                    status, body = await client.request(
                        "POST", "/admit", {"task": [0.0, 10.0, 10.0]}
                    )
                    assert status == 200
                    accepted.append(body["accepted"])
                assert accepted == [True, True, False]
                status, body = await client.request("POST", "/admit", {"reset": True})
                assert status == 200 and body["committed"] == 0
                status, body = await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 10.0]}
                )
                assert body["accepted"] is True
                assert body["marginal_energy"] > 0
            finally:
                await client.close()

        run_with_service(scenario, _config(m=2, f_max=1.0))

    def test_optimal_not_above_heuristic(self):
        async def scenario(service):
            _, sched = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", _schedule_payload()
            )
            status, opt = await request_once(
                "127.0.0.1", service.port, "POST", "/optimal",
                {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1},
            )
            assert status == 200
            assert opt["solver"] == "interior-point"
            assert opt["energy"] <= sched["energy"] * (1 + 1e-6)
            assert len(opt["frequencies"]) == len(_TASKS)

        run_with_service(scenario)


class TestLoadgen:
    def test_loadgen_round_trip_and_cache_warming(self):
        async def scenario(service):
            stats = await run_loadgen(
                "127.0.0.1", service.port,
                n_requests=40, concurrency=4, n_tasks=4, unique=5,
                include_schedule=False, seed=3,
            )
            assert stats["ok"] == 40
            assert stats["errors"] == 0
            assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"]
            # 5 unique task sets cycled 8x: the cache must be doing the work
            assert service.cache.hits >= 30

        run_with_service(scenario, _config(batch_max=16))

    def test_loadgen_spreads_admits_over_the_run(self):
        """5% admits in 1000 requests: never more than 2 in 20 consecutive."""

        async def scenario():
            paths = []

            async def handle(request):
                paths.append(request.path)
                return 200, Raw(b"{}", "application/json"), None

            server = HttpServer(
                handle, lambda status, *_: (status, Raw(b"{}", "application/json"), None)
            )
            await server.start("127.0.0.1", 0)
            try:
                await run_loadgen(
                    "127.0.0.1", server.port,
                    n_requests=1000, concurrency=1, n_tasks=3, unique=10,
                    admit_frac=0.05,
                )
            finally:
                await server.close()
                await server.close_connections()
            return paths

        admits = [path == "/admit" for path in asyncio.run(scenario())]
        assert len(admits) == 1000 and sum(admits) == 50
        assert max(sum(admits[i:i + 20]) for i in range(len(admits) - 19)) <= 2

    def test_loadgen_mixed_workload(self):
        async def scenario(service):
            stats = await run_loadgen(
                "127.0.0.1", service.port,
                n_requests=12, concurrency=3, n_tasks=3, unique=12,
                optimal_frac=0.25, admit_frac=0.25, include_schedule=False,
            )
            assert stats["ok"] == 12
            snap = service.metrics.snapshot()["counters"]
            assert snap["requests_total:/optimal"] == 3
            assert snap["requests_total:/admit"] == 3
            assert snap["requests_total:/schedule"] == 6

        run_with_service(scenario)
