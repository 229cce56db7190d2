"""Pinned ``/schedule`` reply bytes.

A ``/schedule`` result is encoded once, by the pool worker that solved
it, and spliced into every reply of it.  Each reply body must still be
``json.dumps`` of the dict it stands for: ``v1_envelope({**result,
"cache_hit": ...}, meta)`` under ``/v1``, the flat ``{**result,
"cache_hit": ...}`` at the legacy path, where ``result`` is the dict the
worker's bytes encode for the same request.
"""

import json

import pytest

from repro.service import ServiceConfig
from repro.service.http11 import HttpClient, encode_request
from repro.service.pool import solve_schedule_batch
from repro.service.protocol import (
    ScheduleRequest,
    canonical_order,
    canonical_plan_key,
    parse_tasks_field,
    v1_envelope,
)
from tests.conftest import run_with_service

#: one task named with non-ASCII characters (escaped by json.dumps)
_TASKS = [[0.0, 10.0, 8.0, "Zürich-任务"], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]
#: a client trace id holding a quote, a backslash and a non-ASCII
#: character (latin-1, as HTTP heads are read)
_TRACE = 'tr"ace\\id-é'
_TIMEOUT = 1e-6


def _body(**over) -> dict:
    return {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1,
            "method": "der", **over}


def _worker_result(body: dict, **job_over) -> dict:
    """The result dict a pool worker encodes for ``body``, solved here.

    The worker's bytes must be ``json.dumps`` output: decoding and
    re-encoding them gives them back unchanged.
    """
    tasks = sorted(parse_tasks_field(body["tasks"]), key=canonical_order)
    job = {
        "tasks": [(t.release, t.deadline, t.work, t.name) for t in tasks],
        "m": body["m"],
        "alpha": body["alpha"],
        "static": body["static"],
        "gamma": 1.0,
        "method": body["method"],
        "include_schedule": body.get("include_schedule", True),
        **job_over,
    }
    (result,) = solve_schedule_batch([job])
    data = result["encoded"].data
    assert json.dumps(json.loads(data)).encode() == data
    return json.loads(data)


def _expected(path: str, result: dict, cache_hit: bool) -> bytes:
    payload = {**result, "cache_hit": cache_hit}
    if path.startswith("/v1/"):
        meta = {"api_version": "v1", "solver": result["solver"],
                "shard": None, "trace_id": _TRACE}
        if result.get("degraded_from"):
            meta["degraded_from"] = result["degraded_from"]
        payload = v1_envelope(payload, meta)
    return json.dumps(payload).encode()


async def _send(service, path: str, body: dict, times: int) -> list:
    client = HttpClient("127.0.0.1", service.port)
    data = encode_request(
        "POST", path, json.dumps(body).encode(), {"x-trace-id": _TRACE}
    )
    try:
        return [await client.request_raw(data) for _ in range(times)]
    finally:
        await client.close()


def _check_headers(path: str, headers: dict) -> None:
    assert headers["content-type"] == "application/json"
    if path.startswith("/v1/"):
        assert "deprecation" not in headers and "link" not in headers
    else:
        assert headers["deprecation"] == "true"
        assert headers["link"] == f'</v1{path}>; rel="successor-version"'


@pytest.mark.parametrize("include_schedule", [True, False])
@pytest.mark.parametrize("path", ["/v1/schedule", "/schedule"])
def test_miss_and_hit_bytes_equal_the_encoded_dict(path, include_schedule):
    body = _body(include_schedule=include_schedule)
    result = _worker_result(body)

    async def scenario(service):
        (miss, hit) = await _send(service, path, body, 2)
        for (status, headers, data), cache_hit in ((miss, False), (hit, True)):
            assert status == 200
            _check_headers(path, headers)
            assert data == _expected(path, result, cache_hit)
        assert service.cache.stats()["hits"] == 1

    run_with_service(scenario, ServiceConfig(port=0, workers=0, log_interval=0))


@pytest.mark.parametrize("path", ["/v1/schedule", "/schedule"])
def test_degraded_result_bytes_and_never_cached(path):
    body = _body(method="optimal:interior-point")
    result = _worker_result(
        body, timeout_s=_TIMEOUT, fallback="subinterval-der"
    )
    assert result["degraded"] is True

    async def scenario(service):
        replies = await _send(service, path, body, 2)
        for status, headers, data in replies:
            assert status == 200
            _check_headers(path, headers)
            assert data == _expected(path, result, False)
        assert len(service.cache) == 0
        assert service.metrics.counter("degraded_total").value == 2

    run_with_service(
        scenario,
        ServiceConfig(port=0, workers=0, log_interval=0,
                      solver_timeout=_TIMEOUT, degrade_to="subinterval-der"),
    )


def test_miss_caches_the_workers_encoded_result():
    """The event loop encodes nothing on a miss: the plan cache holds the
    very object the worker returned, and a hit splices its bytes."""

    async def scenario(service):
        inner, returned = service.batcher._dispatch, []

        async def spy(jobs):
            results = await inner(jobs)
            returned.extend(r["encoded"] for r in results)
            return results

        service.batcher._dispatch = spy
        (_, (_, _, hit)) = await _send(service, "/v1/schedule", _body(), 2)
        (encoded,) = returned
        req = ScheduleRequest.from_body(_body())
        tasks = sorted(req.tasks, key=canonical_order)
        key = canonical_plan_key(tasks, req.m, req.power, req.solver)
        assert service.cache.peek(key) is encoded
        assert bytes(encoded.data[:-1]) in hit

    run_with_service(scenario, ServiceConfig(port=0, workers=0, log_interval=0))
