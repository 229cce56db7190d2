"""Version-negotiation suite: the ``/v1`` wire API vs the legacy shims.

The contract under test (``docs/api.md``):

* every ``/v1`` response is enveloped ``{"result"|"error", "meta"}`` and
  ``meta`` always carries ``api_version`` and ``trace_id``,
* the ``result`` payload is byte-identical to what the same request gets
  at the bare legacy path (the shims flatten, they never re-solve),
* legacy responses carry ``Deprecation: true`` plus a successor-version
  ``Link``; ``/v1`` responses carry neither,
* errors are ``{"error": {"code", "message", "detail"?}}`` under ``/v1``
  and flattened back to the historical string ``error`` field (with
  detail keys hoisted top-level) under the legacy paths,
* ``GET /v1/solvers`` is the discovery endpoint the unknown-solver 400
  points at.
"""

import asyncio
import json

import pytest

from repro.service import ServiceConfig
from repro.service.http11 import HttpClient, request_once
from repro.service.protocol import EncodedResult
from tests.conftest import run_with_service

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]
# cache_size=0 so the v1/legacy replays of one request cannot diverge on
# the cache_hit flag — equality below is over the full payload
_BASE = dict(port=0, workers=0, log_interval=0, cache_size=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


def _schedule_payload(**over):
    return {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1,
            "method": "der", **over}


async def _both(service, method, path, payload=None):
    """Hit the legacy path and its /v1 twin; return both full responses."""
    client = HttpClient("127.0.0.1", service.port)
    await client.connect()
    try:
        legacy = await client.request_full(method, path, payload)
        v1 = await client.request_full(method, "/v1" + path, payload)
    finally:
        await client.close()
    return legacy, v1


class TestEnvelope:
    def test_v1_result_is_byte_identical_to_legacy(self):
        async def scenario(service):
            (ls, _, lbody), (vs, _, vbody) = await _both(
                service, "POST", "/schedule", _schedule_payload()
            )
            assert ls == vs == 200
            assert vbody["result"] == lbody
            # canonical JSON of both payloads matches byte-for-byte
            assert (json.dumps(vbody["result"], sort_keys=True)
                    == json.dumps(lbody, sort_keys=True))

        run_with_service(scenario, _config())

    def test_v1_optimal_wraps_the_legacy_payload_shape(self):
        async def scenario(service):
            payload = {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1}
            (ls, _, lbody), (vs, _, vbody) = await _both(
                service, "POST", "/optimal", payload
            )
            assert ls == vs == 200
            assert vbody["result"] == lbody

        run_with_service(scenario, _config())

    def test_optimal_answer_ignores_earlier_solves(self):
        # one in-process daemon solves the same body before and after a
        # neighbour with the same window layout (works x1.03): an exact
        # solve depends only on its own request
        async def scenario(service):
            payload = {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1}
            neighbour = {
                **payload,
                "tasks": [[r, d, c * 1.03] for r, d, c in _TASKS],
            }
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                _, first = await client.request("POST", "/v1/optimal", payload)
                _, other = await client.request("POST", "/v1/optimal", neighbour)
                _, again = await client.request("POST", "/v1/optimal", payload)
            finally:
                await client.close()
            assert other["result"]["energy"] != first["result"]["energy"]
            assert json.dumps(again["result"]) == json.dumps(first["result"])

        run_with_service(scenario, _config())

    def test_v1_admit_matches_legacy_after_reset(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                task = {"task": [0.0, 10.0, 6.0]}
                await client.request("POST", "/admit", {"reset": True})
                _, legacy = await client.request("POST", "/admit", task)
                await client.request("POST", "/admit", {"reset": True})
                _, v1 = await client.request("POST", "/v1/admit", task)
                assert v1["result"] == legacy
            finally:
                await client.close()

        run_with_service(scenario, _config())

    def test_every_v1_response_carries_meta(self):
        async def scenario(service):
            requests = [
                ("POST", "/v1/schedule", _schedule_payload()),
                ("POST", "/v1/admit", {"task": [0.0, 10.0, 2.0]}),
                ("POST", "/v1/optimal",
                 {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1}),
                ("GET", "/v1/metrics", None),
                ("GET", "/v1/healthz", None),
                ("GET", "/v1/solvers", None),
                ("POST", "/v1/schedule", {"tasks": []}),  # error path
            ]
            for method, path, payload in requests:
                status, body = await request_once(
                    "127.0.0.1", service.port, method, path, payload
                )
                assert ("result" in body) != ("error" in body), path
                meta = body["meta"]
                assert meta["api_version"] == "v1"
                assert meta["trace_id"]
                assert "shard" in meta  # null single-process, int behind router
                if path == "/v1/schedule" and status == 200:
                    # meta names the canonical solver that actually ran
                    assert meta["solver"] == "subinterval-der"

        run_with_service(scenario, _config())


class TestDeprecationHeaders:
    def test_legacy_paths_announce_deprecation(self):
        async def scenario(service):
            for method, path, payload in (
                ("POST", "/schedule", _schedule_payload()),
                ("GET", "/metrics", None),
                ("GET", "/healthz", None),
            ):
                (_, lheaders, _), (_, vheaders, _) = await _both(
                    service, method, path, payload
                )
                assert lheaders.get("deprecation") == "true"
                assert f"</v1{path}>" in lheaders.get("link", "")
                assert 'rel="successor-version"' in lheaders["link"]
                assert "deprecation" not in vheaders

        run_with_service(scenario, _config())

    def test_legacy_traffic_is_counted(self):
        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "GET", "/healthz"
            )
            await request_once(
                "127.0.0.1", service.port, "GET", "/v1/healthz"
            )
            _, m = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/metrics"
            )
            counters = m["result"]["metrics"]["counters"]
            assert counters["legacy_requests_total"] == 1

        run_with_service(scenario, _config())


class TestUnifiedErrors:
    def test_v1_error_schema(self):
        async def scenario(service):
            cases = [
                ("POST", "/v1/schedule", {"m": 2}, 400, "bad_request"),
                ("POST", "/v1/schedule",
                 {"tasks": _TASKS, "method": "magic"}, 400, "unknown_solver"),
                ("GET", "/v1/nope", None, 404, "not_found"),
                ("GET", "/v1/schedule", None, 405, "method_not_allowed"),
            ]
            for method, path, payload, want_status, want_code in cases:
                status, body = await request_once(
                    "127.0.0.1", service.port, method, path, payload
                )
                assert status == want_status, path
                err = body["error"]
                assert err["code"] == want_code
                assert isinstance(err["message"], str) and err["message"]
                assert body["meta"]["api_version"] == "v1"

        run_with_service(scenario, _config())

    def test_legacy_errors_stay_flat_strings(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule", {"m": 2}
            )
            assert status == 400
            assert isinstance(body["error"], str)
            assert "meta" not in body

        run_with_service(scenario, _config())

    def test_unknown_solver_400_points_at_discovery(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/v1/schedule",
                {"tasks": _TASKS, "method": "magic"},
            )
            assert status == 400
            err = body["error"]
            assert err["code"] == "unknown_solver"
            assert "GET /v1/solvers" in err["message"]
            detail = err["detail"]
            assert detail["requested"] == "magic"
            assert detail["discovery"] == "GET /v1/solvers"
            assert "subinterval-der" in detail["solvers"]

        run_with_service(scenario, _config())

    def test_null_platform_numbers_are_400s_naming_the_field(self):
        """An explicit ``null`` for a platform number is a client error on
        every endpoint that reads one; ``"f_max": null`` alone means
        uncapped."""
        bodies = {
            "/schedule": _schedule_payload(),
            "/optimal": {"tasks": _TASKS, "m": 2},
            "/admit": {"task": [0.0, 5.0, 2.0]},
        }

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                for base, body in bodies.items():
                    for field in ("m", "alpha", "static", "gamma"):
                        for path in (base, "/v1" + base):
                            status, _, reply = await client.request_full(
                                "POST", path, {**body, field: None}
                            )
                            assert status == 400, (path, field)
                            error = reply["error"]
                            message = error if isinstance(error, str) else (
                                error["message"]
                            )
                            assert message.startswith(f"{field} must be"), message
                status, _, reply = await client.request_full(
                    "POST", "/v1/admit", {**bodies["/admit"], "f_max": None}
                )
                assert status == 200
                assert reply["result"]["f_max"] is None
            finally:
                await client.close()

        run_with_service(scenario, _config())

    def test_invalid_json_yields_unified_400(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            raw = b"{not json"
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nContent-Length: "
                + str(len(raw)).encode()
                + b"\r\nConnection: close\r\n\r\n" + raw
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            body = json.loads(await reader.read())
            assert body["error"]["code"] == "invalid_json"
            writer.close()

        run_with_service(scenario, _config())

    def test_overload_shed_is_unified(self):
        async def scenario(service):
            release = asyncio.Event()

            async def slow_dispatch(jobs):
                await release.wait()
                result = {"kind": "S^F2", "energy": 1.0, "n_tasks": 1,
                          "m": 2, "method": "der"}
                return [{"encoded": EncodedResult.of(result)} for _ in jobs]

            service.batcher._dispatch = slow_dispatch

            async def fire(i, v1):
                prefix = "/v1" if v1 else ""
                return await request_once(
                    "127.0.0.1", service.port, "POST", f"{prefix}/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 1.0 + i]]),
                )

            clients = [asyncio.ensure_future(fire(i, i % 2 == 0))
                       for i in range(4)]
            await asyncio.sleep(0.15)
            release.set()
            results = await asyncio.gather(*clients)
            shed = [(i, body) for i, (status, body) in enumerate(results)
                    if status == 429]
            assert len(shed) == 3
            for i, body in shed:
                if i % 2 == 0:  # the /v1 half
                    assert body["error"]["code"] == "overloaded"
                    assert body["error"]["detail"]["max_inflight"] == 1
                else:  # legacy flatten: string error + hoisted detail keys
                    assert isinstance(body["error"], str)
                    assert body["max_inflight"] == 1

        run_with_service(scenario, _config(max_inflight=1, batch_max=1))


class TestSolverDiscovery:
    def test_catalog_shape(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            assert status == 200
            solvers = {s["name"]: s for s in body["result"]["solvers"]}
            assert {"subinterval-der", "optimal:interior-point"} <= set(solvers)
            assert "der" in solvers["subinterval-der"]["aliases"]
            assert solvers["optimal:interior-point"]["optimal_only"] is True
            assert solvers["subinterval-der"]["optimal_only"] is False
            for entry in solvers.values():
                assert set(entry) >= {"name", "aliases", "optimal_only",
                                      "session"}

        run_with_service(scenario, _config())

    def test_catalog_bytes_are_pinned(self):
        def entry(name, aliases=(), session=False):
            exact = name.startswith("optimal:")
            return {"name": name, "aliases": list(aliases), "optimal_only": exact,
                    "session": session,
                    "degrades_to": "subinterval-der" if exact else None}

        catalog = [
            entry("edf"),
            entry("naive"),
            entry("online"),
            entry("optimal:interior-point", ["interior-point"]),
            entry("optimal:projected-gradient", ["projected-gradient"]),
            entry("optimal:slsqp", ["SLSQP"]),
            entry("optimal:trust-constr", ["trust-constr"]),
            entry("practical"),
            entry("subinterval-der", ["der"], session=True),
            entry("subinterval-even", ["even"], session=True),
            entry("yds"),
        ]

        async def scenario(service):
            _, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            names = {s["name"] for s in body["result"]["solvers"]}
            expected = {
                "api_version": "v1",
                # the SciPy backends register only when SciPy imports
                "solvers": [e for e in catalog if e["name"] in names],
                "default_method": "der",
                "default_optimal": "interior-point",
            }
            assert json.dumps(body["result"]) == json.dumps(expected)

        run_with_service(scenario, _config())

    def test_degrade_targets_reflect_config(self):
        async def scenario(service):
            _, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            solvers = {s["name"]: s for s in body["result"]["solvers"]}
            assert (solvers["optimal:interior-point"].get("degrades_to")
                    == "subinterval-der")

        run_with_service(scenario, _config(solver_timeout=5.0,
                               degrade_to="subinterval-der"))

    def test_no_degrade_without_timeout(self):
        async def scenario(service):
            _, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            for entry in body["result"]["solvers"]:
                assert entry["degrades_to"] is None

        run_with_service(scenario, _config(solver_timeout=0.0))


class TestLegacyCompatibility:
    """The pre-v1 surface is pinned: same fields, same types."""

    def test_schedule_response_fields_unchanged(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                _schedule_payload(),
            )
            assert status == 200
            assert body["kind"] == "S^F2"
            assert body["energy"] > 0
            assert "schedule" in body
            assert "result" not in body and "meta" not in body

        run_with_service(scenario, _config())

    def test_shared_state_across_dialects(self):
        """/admit and /v1/admit are one session, not two."""

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request("POST", "/admit", {"reset": True})
                _, first = await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 4.0]}
                )
                assert first["committed"] == 1
                _, second = await client.request(
                    "POST", "/v1/admit", {"task": [1.0, 12.0, 4.0]}
                )
                assert second["result"]["committed"] == 2
            finally:
                await client.close()

        run_with_service(scenario, _config())


class TestAdmitPeek:
    def test_peek_is_read_only_snapshot(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request("POST", "/admit", {"reset": True})
                _, empty = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                assert empty["result"]["committed"] == 0
                assert empty["result"]["peek"] is True
                await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 4.0]}
                )
                _, a = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                _, b = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                assert a["result"] == b["result"]  # no state mutation
                assert a["result"]["committed"] == 1
                assert a["result"]["energy"] > 0
                assert a["result"]["boundaries"]
                assert a["result"]["x"]
            finally:
                await client.close()

        run_with_service(scenario, _config())

    def test_peek_rejects_task(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/v1/admit",
                {"peek": True, "task": [0.0, 10.0, 4.0]},
            )
            assert status == 400
            assert body["error"]["code"] == "bad_request"

        run_with_service(scenario, _config())


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
