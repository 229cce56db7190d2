"""Async load generator for benchmarking the scheduling daemon.

A closed-loop load driver over the :mod:`~repro.service.http11`
keep-alive client: ``concurrency`` workers each hold one persistent
connection and pull request indices from a shared counter until
``n_requests`` have been issued.  The workload is a pool of ``unique``
paper-style task sets cycled round-robin — ``unique < n_requests``
exercises the plan cache, ``unique == n_requests`` keeps it cold — with
an optional fraction of ``/optimal`` and ``/admit`` traffic spread evenly
through it.

Per-request wall latencies feed the same percentile math the server's
histograms use, so client- and server-side numbers are comparable.

Chaos mode (``chaos="malform=0.1,seed=7"``) injects client-side faults:
a seeded fraction of ``/schedule`` requests is replaced with a malformed
payload from :data:`repro.service.faults.MALFORMED_MENU`.  Every one of
those must come back ``400`` — a ``500`` means the validation layer let
garbage reach a worker — and they are tallied separately in the stats so
they don't pollute the latency/status picture of the well-formed traffic.
Server-side faults (kill/delay/drop) are configured on the *server* via
``repro serve --chaos``; a dropped response surfaces here as the client's
transparent single reconnect-retry, so only double-faults count as errors.
"""

from __future__ import annotations

import asyncio
import json
import time

from ..obs.metrics import percentile
from .faults import FaultInjector, FaultSpec
from .http11 import HttpClient, request_once

__all__ = [
    "run_loadgen",
    "format_stats",
    "collect_shard_report",
]


async def collect_shard_report(host: str, port: int) -> dict | None:
    """Per-shard balance summary scraped from a router's merged metrics.

    Returns ``None`` against a single-process daemon (whose ``/metrics``
    page has no ``shards`` section) or when the scrape fails — shard
    reporting degrades to absent, never to an error.
    """
    try:
        status, page = await request_once(host, port, "GET", "/v1/metrics")
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        return None
    if status != 200 or not isinstance(page, dict):
        return None
    body = page.get("result", page)
    shards = body.get("shards")
    router = body.get("router")
    if not isinstance(shards, dict) or not isinstance(router, dict):
        return None
    per_shard = {}
    for sid in sorted(shards, key=int):
        counters = (shards[sid].get("metrics") or {}).get("counters", {})
        per_shard[sid] = {
            "requests": sum(
                v for k, v in counters.items()
                if k.startswith("requests_total:")
            ),
            "admits": counters.get("requests_total:/admit", 0)
            + counters.get("requests_total:/v1/admit", 0),
        }
    router_counters = (router.get("metrics") or {}).get("counters", {})
    return {
        "count": router.get("shards"),
        "respawns": router_counters.get("shard_respawns_total", 0),
        "admit_replays": router_counters.get("admit_replays_total", 0),
        "per_shard": per_shard,
    }


def _make_tasksets(unique: int, n_tasks: int, seed: int) -> list[list[list[float]]]:
    """Pre-generate the request pool as plain JSON rows (no client numpy)."""
    import numpy as np

    from ..workloads.generator import PaperWorkloadConfig, paper_workload

    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(unique):
        tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=n_tasks))
        pool.append([[t.release, t.deadline, t.work] for t in tasks])
    return pool


def _make_admit_stream(
    n: int, seed: int, rate: float = 1.0
) -> list[list[float]]:
    """A Poisson arrival stream of paper-style tasks, in release order.

    Interarrival times are exponential with the given ``rate``; work and
    intensity follow the paper's workload menu, so the deadline windows
    overlap heavily enough that successive admits genuinely perturb the
    committed plan.
    """
    import numpy as np

    from ..workloads.generator import intensity_menu

    rng = np.random.default_rng(seed)
    releases = np.cumsum(rng.exponential(1.0 / rate, size=n))
    works = rng.uniform(10.0, 30.0, size=n)
    intensities = rng.choice(intensity_menu(), size=n)
    deadlines = releases + works / intensities
    return [
        [float(r), float(d), float(c)]
        for r, d, c in zip(releases, deadlines, works)
    ]


def _spread_kinds(n: int, counts: dict[str, int]) -> list[str]:
    """The kind of each of ``n`` requests: ``counts[kind]`` of each kind,
    spread evenly over the run, and ``"schedule"`` for the rest.

    The k-th of a kind's ``c`` requests takes index ``(k + ½)·n/c``, or
    the next free index after it, so no kind arrives as one burst.  The
    counts must sum to at most ``n``.
    """
    kinds = ["schedule"] * n
    for kind, count in counts.items():
        for k in range(count):
            i = int((k + 0.5) * n / count)
            while kinds[i] != "schedule":
                i = (i + 1) % n
            kinds[i] = kind
    return kinds


async def _drive(host: str, port: int, n_requests: int, concurrency: int, request_for) -> dict:
    """The closed loop every workload shares.

    ``concurrency`` workers, each on one keep-alive connection, send
    ``request_for(i)`` for ``i = 0 .. n_requests-1``.  ``request_for``
    returns the request's wire bytes and an optional ``on_reply(status,
    body)``; a reply it answers False for is kept out of the latency and
    status tallies.  Returns RPS, statuses, errors and latency percentiles.
    """
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    errors = 0
    indices = iter(range(n_requests))  # shared: each index is sent once

    async def worker() -> None:
        nonlocal errors
        client = HttpClient(host, port)
        await client.connect()
        try:
            for i in indices:
                data, on_reply = request_for(i)
                t0 = time.perf_counter()
                try:
                    status, _, body = await client.request_raw(data)
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    errors += 1
                    await client.close()
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                if on_reply is None or on_reply(status, body):
                    latencies.append(ms)
                    statuses[status] = statuses.get(status, 0) + 1
        finally:
            await client.close()

    t_start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(min(concurrency, n_requests))))
    elapsed = time.perf_counter() - t_start
    return {
        "requests": n_requests,
        "concurrency": concurrency,
        "elapsed_s": round(elapsed, 6),
        "rps": round(n_requests / elapsed, 3) if elapsed > 0 else float("inf"),
        "ok": statuses.get(200, 0),
        "shed": statuses.get(429, 0),
        "errors": errors,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "latency_ms": {
            "mean": round(sum(latencies) / len(latencies), 4) if latencies else None,
            "p50": round(percentile(latencies, 50), 4) if latencies else None,
            "p95": round(percentile(latencies, 95), 4) if latencies else None,
            "p99": round(percentile(latencies, 99), 4) if latencies else None,
        },
    }


async def _run_admit_stream(
    host: str,
    port: int,
    *,
    n_requests: int,
    concurrency: int,
    m: int,
    alpha: float,
    static: float,
    seed: int,
    admit_rate: float,
) -> dict:
    """Replay a Poisson arrival stream through ``POST /admit`` in order."""
    stream = _make_admit_stream(n_requests, seed, admit_rate)
    codec = HttpClient(host, port)
    encoded = [
        codec.encode_request(
            "POST", "/admit",
            {"task": task, "m": m, "alpha": alpha, "static": static},
        )
        for task in stream
    ]

    # the admission session is stateful: start from an empty committed set
    await request_once(host, port, "POST", "/admit", {"reset": True, "m": m,
                                                      "alpha": alpha,
                                                      "static": static})

    verdicts = {"accepted": 0, "rejected": 0}

    def on_reply(status: int, body: bytes) -> bool:
        if status == 200:
            accepted = json.loads(body).get("accepted")
            verdicts["accepted" if accepted else "rejected"] += 1
        return True

    stats = await _drive(
        host, port, n_requests, concurrency, lambda i: (encoded[i], on_reply)
    )
    return {**stats, "admit": verdicts, "chaos": None}


async def run_loadgen(
    host: str,
    port: int,
    *,
    n_requests: int = 500,
    concurrency: int = 16,
    n_tasks: int = 8,
    unique: int = 50,
    optimal_frac: float = 0.0,
    admit_frac: float = 0.0,
    m: int = 4,
    alpha: float = 3.0,
    static: float = 0.1,
    method: str = "der",
    include_schedule: bool = False,
    seed: int = 0,
    chaos: str = "",
    admit_stream: bool = False,
    admit_rate: float = 1.0,
    shard_report: bool = False,
) -> dict:
    """Drive the daemon and return a stats dict (RPS, percentiles, statuses).

    ``admit_stream=True`` switches to the incremental-admission workload:
    a single Poisson arrival stream of ``n_requests`` tasks replayed in
    release order through ``POST /admit`` (after a reset), exercising the
    session-backed delta path the way ``/schedule`` traffic exercises the
    batch path.

    ``shard_report=True`` scrapes the target's merged metrics after the
    run and attaches a per-shard request-balance section (sharded routers
    only; silently absent against a single-process daemon).
    """
    if n_requests < 1 or concurrency < 1 or unique < 1:
        raise ValueError("n_requests, concurrency, unique must be >= 1")
    if admit_stream:
        stats = await _run_admit_stream(
            host,
            port,
            n_requests=n_requests,
            concurrency=concurrency,
            m=m,
            alpha=alpha,
            static=static,
            seed=seed,
            admit_rate=admit_rate,
        )
        if shard_report:
            stats["shards"] = await collect_shard_report(host, port)
        return stats
    spec = FaultSpec.parse(chaos)
    injector = FaultInjector(spec) if spec.malform_rate > 0 else None
    pool = _make_tasksets(unique, n_tasks, seed)
    n_optimal = min(int(n_requests * optimal_frac), n_requests)
    n_admit = min(int(n_requests * admit_frac), n_requests - n_optimal)
    kinds = _spread_kinds(n_requests, {"optimal": n_optimal, "admit": n_admit})

    # pre-encode one request per (endpoint, pool entry): request construction
    # is not what this tool measures, and on a small host every cycle the
    # client burns is stolen from the server under test
    codec = HttpClient(host, port)
    schedule_enc = [
        codec.encode_request(
            "POST", "/schedule",
            {
                "tasks": tasks, "m": m, "alpha": alpha, "static": static,
                "method": method, "include_schedule": include_schedule,
            },
        )
        for tasks in pool
    ]
    optimal_enc = [
        codec.encode_request(
            "POST", "/optimal",
            {"tasks": tasks, "m": m, "alpha": alpha, "static": static},
        )
        for tasks in (pool if n_optimal else [])
    ]

    malformed_statuses: dict[int, int] = {}

    def tally_malformed(status: int, _body: bytes) -> bool:
        # tallied apart so garbage requests don't skew the latency/status
        # picture of the real workload
        malformed_statuses[status] = malformed_statuses.get(status, 0) + 1
        return False

    def request_for(i: int):
        if injector is not None and injector.should_malform():
            payload = injector.malformed_payload()
            return codec.encode_request("POST", "/schedule", payload), tally_malformed
        if kinds[i] == "optimal":
            return optimal_enc[i % unique], None
        if kinds[i] == "admit":
            tasks = pool[i % unique]
            return codec.encode_request(
                "POST", "/admit", {"task": tasks[i % len(tasks)]}
            ), None
        return schedule_enc[i % unique], None

    stats = await _drive(host, port, n_requests, concurrency, request_for)
    shards = await collect_shard_report(host, port) if shard_report else None
    return {
        **({"shards": shards} if shard_report else {}),
        **stats,
        "chaos": {
            "spec": spec.format(),
            "malformed_sent": sum(malformed_statuses.values()),
            "malformed_statuses": {
                str(k): v for k, v in sorted(malformed_statuses.items())
            },
            "malformed_rejected": malformed_statuses.get(400, 0),
        }
        if injector is not None
        else None,
    }


def format_stats(stats: dict) -> str:
    """Human-readable loadgen report."""
    lat = stats["latency_ms"]
    lines = [
        f"requests: {stats['requests']}  concurrency: {stats['concurrency']}",
        f"elapsed:  {stats['elapsed_s']:.3f} s  ({stats['rps']:.1f} req/s)",
        f"statuses: {stats['statuses']}  shed: {stats['shed']}  errors: {stats['errors']}",
    ]
    if lat["p50"] is not None:
        lines.append(
            f"latency:  mean {lat['mean']:.2f} ms  p50 {lat['p50']:.2f}  "
            f"p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}"
        )
    if stats.get("admit"):
        admit = stats["admit"]
        lines.append(
            f"admit:    accepted {admit['accepted']}  rejected {admit['rejected']}"
        )
    if stats.get("chaos"):
        chaos = stats["chaos"]
        lines.append(
            f"chaos:    spec [{chaos['spec']}]  malformed sent "
            f"{chaos['malformed_sent']}  rejected(400) {chaos['malformed_rejected']}"
            f"  statuses {chaos['malformed_statuses']}"
        )
    if stats.get("shards"):
        sh = stats["shards"]
        balance = "  ".join(
            f"shard{k}:{v['requests']}" for k, v in sh["per_shard"].items()
        )
        lines.append(
            f"shards:   {sh['count']}  respawns {sh['respawns']}  "
            f"replays {sh['admit_replays']}  {balance}"
        )
    return "\n".join(lines)
