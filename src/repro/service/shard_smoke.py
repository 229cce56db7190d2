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

    python -m repro.service.shard_smoke [--requests 90] [--seed 7]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys

from .config import ServiceConfig
from .http11 import HttpClient, request_once
from .router import ShardRouter

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


def _make_tasksets(n: int, seed: int) -> list[list[list[float]]]:
    import numpy as np

    from ..workloads.generator import PaperWorkloadConfig, paper_workload

    rng = np.random.default_rng(seed)
    return [
        [[t.release, t.deadline, t.work] for t in
         paper_workload(rng, PaperWorkloadConfig(n_tasks=3))]
        for _ in range(n)
    ]


async def _drive(port: int, n_requests: int, seed: int, failures: list[str]):
    """The seeded schedule+admit mix; returns (admit_log, peeks)."""
    tasksets = _make_tasksets(8, seed)
    streams = [
        _make_stream(max(n_requests // 6, 4), seed + i)
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
                failures.append(f"admit reset answered {status}")

        n_schedule = n_requests - sum(len(s) for s in streams)
        for k in range(max(n_schedule, 0)):
            path = "/v1/schedule" if k % 2 == 0 else "/schedule"
            status, body = await client.request(
                "POST", path,
                {"tasks": tasksets[k % len(tasksets)],
                 "include_schedule": False},
            )
            if status != 200:
                failures.append(f"{path} #{k} answered {status}: {body}")
                continue
            if path.startswith("/v1"):
                if "result" not in body or "meta" not in body:
                    failures.append(f"{path} response missing the v1 envelope")
                elif body["meta"].get("shard") is None:
                    failures.append(f"{path} meta.shard is null behind a router")

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
                    failures.append(
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
                failures.append(f"peek answered {status}")
                body = {}
            peeks.append(json.dumps(body, sort_keys=True))
    finally:
        await client.close()
    return admit_log, peeks


def _check_prometheus(text: str, n_shards: int, failures: list[str]) -> None:
    series = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([^ ]+)$"
    )
    helps: dict[str, int] = {}
    shard_labels = set()
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            fam = line.split()[2]
            helps[fam] = helps.get(fam, 0) + 1
        elif line.startswith("# TYPE "):
            continue
        elif not series.match(line):
            failures.append(f"unparseable exposition line: {line!r}")
            return
        for m in re.finditer(r'shard="([^"]+)"', line):
            shard_labels.add(m.group(1))
    dupes = [f for f, c in helps.items() if c > 1]
    if dupes:
        failures.append(f"duplicate HELP headers (invalid exposition): {dupes}")
    expected = {str(i) for i in range(n_shards)} | {"router"}
    if not expected <= shard_labels:
        failures.append(
            f"merged scrape missing shard labels: have {sorted(shard_labels)}, "
            f"want at least {sorted(expected)}"
        )


async def shard_smoke(n_requests: int = 90, seed: int = 7) -> list[str]:
    failures: list[str] = []
    config = ServiceConfig(
        port=0, workers=0, log_interval=0.0, batch_window=0.0
    )

    router3 = ShardRouter(config, shards=3)
    await router3.start()
    try:
        log3, peeks3 = await _drive(router3.port, n_requests, seed, failures)

        status, _, body = await HttpClient(
            "127.0.0.1", router3.port
        ).request_full("GET", "/metrics", headers={"Accept": "text/plain"})
        if status != 200:
            failures.append(f"prometheus scrape answered {status}")
        else:
            _check_prometheus(body["text"], 3, failures)

        status, page = await request_once(
            "127.0.0.1", router3.port, "GET", "/v1/metrics"
        )
        if status != 200 or set(page.get("result", {}).get("shards", {})) != {
            "0", "1", "2"
        }:
            failures.append("merged JSON metrics missing per-shard pages")
    finally:
        await router3.stop()

    router1 = ShardRouter(config, shards=1)
    await router1.start()
    try:
        log1, peeks1 = await _drive(router1.port, n_requests, seed, failures)
    finally:
        await router1.stop()

    for i in range(len(PLATFORMS)):
        if log3[i] != log1[i]:
            diverge = sum(a != b for a, b in zip(log3[i], log1[i]))
            failures.append(
                f"platform {i}: 3-shard admit stream diverged from 1-shard "
                f"run ({diverge} differing events of {len(log3[i])})"
            )
    if peeks3 != peeks1:
        failures.append(
            "final plan snapshots (boundaries/x/energy) differ between "
            "3-shard and 1-shard deployments"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=90)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    failures = asyncio.run(shard_smoke(args.requests, args.seed))
    if failures:
        print("shard-smoke FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        "shard-smoke OK: 3-shard mix served with zero lost acks, merged "
        "scrape parsed with shard labels, sessions bit-equal to 1-shard run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
