"""Sharded-router smoke check (``make shard-smoke``).

Boots a 3-shard router on an ephemeral port and drives a seeded
schedule+admit mix through it, asserting the sharding contract end to
end:

* **zero lost acks** — every request gets the expected response status
  (no 5xx, no dropped connections),
* **merged exposition** — the Prometheus scrape parses (one HELP/TYPE
  header per family) and carries at least router + 3 shard label values,
* **bit-equal sessions** — the same seeded ``/admit`` streams replayed
  against a 1-shard router produce byte-identical per-event responses and
  identical final plan snapshots (boundaries, x, energy) per platform,
* **envelope** — every ``/v1`` response carries the ``meta`` block.

Run directly::

    python -m repro.service.shard_smoke [--seed 7]
"""

from __future__ import annotations

import json
import re
import sys

from ..obs.prom import parse_prometheus
from ..smoke import Smoke, main
from .config import ServiceConfig
from .http11 import HttpClient, request_once
from .loadgen import _make_tasksets
from .router import ShardRouter

#: requests per deployment: the schedule mix plus the three admit streams
_REQUESTS = 90

#: distinct admission platforms — different f_max caps hash to different
#: ring positions, so a 3-shard run genuinely spreads sessions
PLATFORMS = (
    {"f_max": 2.0},
    {"f_max": 2.5, "m": 2},
    {"f_max": 3.0, "static": 0.05},
)


def _make_stream(n: int, seed: int) -> list[list[float]]:
    import numpy as np

    rng = np.random.default_rng(seed)
    releases = np.cumsum(rng.exponential(1.0, size=n))
    works = rng.uniform(5.0, 20.0, size=n)
    deadlines = releases + works / rng.uniform(0.5, 1.5, size=n)
    return [
        [float(r), float(d), float(c)]
        for r, d, c in zip(releases, deadlines, works)
    ]


async def _drive(port: int, seed: int, smoke: Smoke):
    """The seeded schedule+admit mix; returns (admit_log, peeks)."""
    tasksets = _make_tasksets(8, 3, seed)
    streams = [
        _make_stream(max(_REQUESTS // 6, 4), seed + i)
        for i in range(len(PLATFORMS))
    ]
    client = HttpClient("127.0.0.1", port)
    await client.connect()

    admit_log: dict[int, list[str]] = {i: [] for i in range(len(PLATFORMS))}
    try:
        for i, platform in enumerate(PLATFORMS):
            status, _ = await client.request(
                "POST", "/admit", {"reset": True, **platform}
            )
            if status != 200:
                smoke.fail(f"admit reset answered {status}")

        n_schedule = _REQUESTS - sum(len(s) for s in streams)
        for k in range(max(n_schedule, 0)):
            path = "/v1/schedule" if k % 2 == 0 else "/schedule"
            status, body = await client.request(
                "POST", path,
                {"tasks": tasksets[k % len(tasksets)],
                 "include_schedule": False},
            )
            if status != 200:
                smoke.fail(f"{path} #{k} answered {status}: {body}")
                continue
            if path.startswith("/v1"):
                if "result" not in body or "meta" not in body:
                    smoke.fail(f"{path} response missing the v1 envelope")
                elif body["meta"].get("shard") is None:
                    smoke.fail(f"{path} meta.shard is null behind a router")

        # interleave the platform streams so shard-affinity is exercised
        # under mixed traffic, not one platform at a time
        max_len = max(len(s) for s in streams)
        for step in range(max_len):
            for i, platform in enumerate(PLATFORMS):
                if step >= len(streams[i]):
                    continue
                status, body = await client.request(
                    "POST", "/admit",
                    {"task": streams[i][step], **platform},
                )
                if status != 200:
                    smoke.fail(
                        f"admit platform {i} event {step} answered {status}"
                    )
                    continue
                admit_log[i].append(json.dumps(body, sort_keys=True))

        peeks = []
        for platform in PLATFORMS:
            status, body = await client.request(
                "POST", "/admit", {"peek": True, **platform}
            )
            if status != 200:
                smoke.fail(f"peek answered {status}")
                body = {}
            peeks.append(json.dumps(body, sort_keys=True))
    finally:
        await client.close()
    return admit_log, peeks


def _check_prometheus(text: str, n_shards: int, smoke: Smoke) -> None:
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        smoke.fail(f"merged exposition does not parse: {exc}")
        return
    shard_labels = {
        label
        for family in families.values()
        for series in family["samples"]
        for label in re.findall(r'shard="([^"]+)"', series)
    }
    expected = {str(i) for i in range(n_shards)} | {"router"}
    smoke.check(
        expected <= shard_labels,
        f"merged scrape parsed ({len(families)} families, shard labels "
        f"{sorted(shard_labels)})",
        f"merged scrape missing shard labels: have {sorted(shard_labels)}, "
        f"want at least {sorted(expected)}",
    )


async def check(smoke: Smoke, seed: int = 7) -> None:
    config = ServiceConfig(
        port=0, workers=0, log_interval=0.0, batch_window=0.0
    )

    async with ShardRouter(config, shards=3) as router3:
        log3, peeks3 = await _drive(router3.port, seed, smoke)

        status, body = await request_once(
            "127.0.0.1", router3.port, "GET", "/metrics",
            headers={"Accept": "text/plain"},
        )
        if status != 200:
            smoke.fail(f"prometheus scrape answered {status}")
        else:
            _check_prometheus(body["text"], 3, smoke)

        status, page = await request_once(
            "127.0.0.1", router3.port, "GET", "/v1/metrics"
        )
        if status != 200 or set(page.get("result", {}).get("shards", {})) != {
            "0", "1", "2"
        }:
            smoke.fail("merged JSON metrics missing per-shard pages")

    async with ShardRouter(config, shards=1) as router1:
        log1, peeks1 = await _drive(router1.port, seed, smoke)

    for i in range(len(PLATFORMS)):
        diverge = sum(a != b for a, b in zip(log3[i], log1[i]))
        smoke.check(
            log3[i] == log1[i],
            f"platform {i}: {len(log3[i])} admits bit-equal to the 1-shard run",
            f"platform {i}: 3-shard admit stream diverged from 1-shard "
            f"run ({diverge} differing events of {len(log3[i])})",
        )
    smoke.check(
        peeks3 == peeks1,
        "final plan snapshots bit-equal to the 1-shard run",
        "final plan snapshots (boundaries/x/energy) differ between "
        "3-shard and 1-shard deployments",
    )


if __name__ == "__main__":
    sys.exit(main("shard-smoke", check))
