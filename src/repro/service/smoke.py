"""Smoke check: boot the daemon, hit every endpoint once, shut down clean.

It also sends two ``/schedule`` bodies twice each, once per wire dialect,
and checks that the cache hit's reply bytes are the miss's with only the
``cache_hit`` flag flipped.

The sweep runs twice: against a ``workers=0`` daemon (thread-executor
solves) and a ``workers=2`` daemon (real pool worker processes), and the
two must answer those ``/schedule`` bodies with byte-identical replies,
so a framing or pickling fault on the pool's pipes fails it.

Run as ``python -m repro.service.smoke`` (the ``make serve-smoke`` target).
Exit code 0 means every endpoint answered as expected and graceful
shutdown completed; any deviation prints the failure and exits 1.  Both
daemons bind an ephemeral port, so it is hermetic and safe to run
anywhere — including CI.
"""

from __future__ import annotations

import sys

from ..smoke import Smoke, main
from .config import ServiceConfig
from .http11 import HttpClient, request_once
from .server import SchedulingService

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]
_MISS, _HIT = b'"cache_hit": false', b'"cache_hit": true'


async def check(smoke: Smoke) -> None:
    """Sweep a thread-mode daemon and a two-worker one; compare their bytes."""
    replies = [await _sweep(smoke, workers) for workers in (0, 2)]
    smoke.check(
        replies[0] == replies[1],
        "workers=0 and workers=2 answer /schedule with the same bytes",
        "the workers=0 and workers=2 daemons' /schedule replies differ",
    )


async def _sweep(smoke: Smoke, workers: int) -> list[bytes]:
    """Hit every endpoint of a fresh daemon once; returns the bytes of the
    repeated ``/schedule`` replies."""
    config = ServiceConfig(port=0, workers=workers, log_interval=0, f_max=2.0)
    replies = []
    async with SchedulingService(config) as service:
        print(f"serve-smoke: daemon (workers={workers}) on port {service.port}")

        async def expect(method, path, payload, predicate, label):
            status, body = await request_once(
                config.host, service.port, method, path, payload
            )
            if status != 200:
                smoke.fail(f"{label}: HTTP {status}: {body.get('error')}")
            elif not predicate(body):
                smoke.fail(f"{label}: unexpected body {body}")
            else:
                smoke.ok(f"{method} {path}")

        await expect(
            "GET", "/healthz", None, lambda b: b.get("status") == "ok", "healthz"
        )
        await expect(
            "POST",
            "/schedule",
            {"tasks": _TASKS, "m": 2, "static": 0.1, "method": "der"},
            lambda b: b.get("energy", 0) > 0 and b.get("kind") == "S^F2",
            "schedule",
        )
        await expect(
            "POST",
            "/admit",
            {"task": {"release": 0.0, "deadline": 5.0, "work": 2.0}},
            lambda b: b.get("accepted") is True,
            "admit",
        )
        await expect(
            "POST",
            "/optimal",
            {"tasks": _TASKS, "m": 2, "static": 0.1},
            lambda b: b.get("energy", 0) > 0,
            "optimal",
        )
        await expect(
            "GET",
            "/metrics",
            None,
            lambda b: b["metrics"]["counters"].get("requests_total:/schedule") == 1,
            "metrics",
        )

        # a repeat is a cache hit that splices the stored result's bytes:
        # it must equal the miss's reply with only the cache_hit flag
        # flipped (one x-trace-id keeps the /v1 meta equal too)
        for path, m in (("/schedule", 3), ("/v1/schedule", 4)):
            client = HttpClient(config.host, service.port)
            data = client.encode_request(
                "POST", path,
                {"tasks": _TASKS, "m": m, "static": 0.1, "method": "der"},
                {"x-trace-id": "serve-smoke"},
            )
            try:
                (s1, _, first), (s2, _, repeat) = [
                    await client.request_raw(data) for _ in range(2)
                ]
            finally:
                await client.close()
            smoke.check(
                s1 == s2 == 200
                and first.count(_MISS) == 1
                and repeat == first.replace(_MISS, _HIT),
                f"POST {path} twice: the hit is the miss's bytes with cache_hit true",
                f"{path}: the repeat's bytes are not the first's with cache_hit "
                f"flipped (HTTP {s1}, {s2})",
            )
            replies += [first, repeat]
    return replies


if __name__ == "__main__":
    sys.exit(main("serve-smoke", check))
