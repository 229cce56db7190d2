"""Serving-layer benchmark: coalescing under backlog, and the plan cache.

Compares two daemons that differ in one setting, ``batch_max``:

* ``default`` — ``ServiceConfig()``: a request dispatches at once while
  the worker is idle, and up to 32 requests that queued behind the busy
  worker go to it as one dispatch (and one fused solver pass);
* ``batch_max=1`` — every dispatch holds one request.

Each side serves one mix through a 1-worker process pool: 1000
requests at 64 connections, 95% ``/schedule`` on 3-task sets (schedules
omitted) and 5% ``/admit``.  Two scenarios, each on a freshly booted
daemon:

* ``cold`` — 1000 distinct task sets, so every ``/schedule`` misses the
  plan cache and queues for the worker: this is the backlog that
  coalescing is for;
* ``warm`` — 25 task sets served once before timing, so the timed
  ``/schedule`` traffic is cache hits that never reach the batcher: the
  prediction is no difference between the sides.

The daemon runs in this process; the load comes from a separate client
process (``python -m repro loadgen --json``), so client-side HTTP work
never shares the daemon's event loop.  The sides alternate which runs
first over ``PAIRS`` pairs (1 in a smoke run), so host-speed drift lands
on both; both sides of a scenario run back to back and send the same
task sets.

Gates: every request of every run must answer 200.  A full run also
requires the default's median cold RPS to be at least 2x that of
``batch_max=1`` and below its median warm RPS, and every warm run to hit
the plan cache on over 90% of ``/schedule`` requests with fewer than
half the pool dispatches of the same side's cold run.  It archives every
run plus per-scenario medians and quartiles in
``results/bench/BENCH_service.json`` with the host's CPU count and
Python version.  A smoke run (one pair, no ratio gate) writes nothing.

Usage::

    python -m benchmarks.bench_service_throughput --smoke
    python -m benchmarks.bench_service_throughput
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform as _platform
import statistics
import sys
from pathlib import Path

from repro.service import SchedulingService, ServiceConfig
from repro.service.loadgen import run_loadgen

_ROOT = Path(__file__).resolve().parent.parent

#: the two daemons compared, as ServiceConfig overrides
SIDES = {"default": {}, "batch_max=1": {"batch_max": 1}}
#: scenario -> distinct task sets the client cycles
SCENARIOS = {"cold": 1000, "warm": 25}
#: alternating pairs of a full run (a smoke run has 1)
PAIRS = 7
#: the cold-scenario gate on a full run: default RPS / batch_max=1 RPS
MIN_COLD_SPEEDUP = 2.0

_REQUESTS = 1000
_CONCURRENCY = 64
_N_TASKS = 3
_ADMIT_FRAC = 0.05


async def _client_subprocess(port: int, *, unique: int, seed: int) -> dict:
    """Run ``repro loadgen --json`` in its own process and parse its stats."""
    args = [
        sys.executable, "-m", "repro", "loadgen", "--json",
        "--port", str(port), "-n", str(_REQUESTS), "-c", str(_CONCURRENCY),
        "--n-tasks", str(_N_TASKS), "--unique", str(unique), "-m", "2",
        "--admit-frac", str(_ADMIT_FRAC), "--seed", str(seed),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = await asyncio.create_subprocess_exec(
        *args, env=env,
        stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE,
    )
    out, err = await proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"loadgen failed: {err.decode()[-500:]}")
    return json.loads(out.decode())


def _counts(service: SchedulingService) -> tuple[int, ...]:
    """Cache hits and misses, pool dispatches, batcher batches and jobs."""
    return (service.cache.hits, service.cache.misses,
            service.dispatcher.dispatch_count,
            service.batcher.batches, service.batcher.jobs)


async def _run(side: str, scenario: str, seed: int) -> dict:
    """Boot one daemon, prepare it untimed, and time one client run."""
    unique = SCENARIOS[scenario]
    config = ServiceConfig(
        port=0, workers=1, cache_size=1024, max_inflight=4 * _CONCURRENCY,
        log_interval=0, **SIDES[side],
    )
    async with SchedulingService(config) as service:
        # untimed: start the pool worker; for warm, serve the client's task
        # sets once (same seed); for cold, other sets (another seed), so
        # no timed /schedule request can hit the cache
        await run_loadgen(
            "127.0.0.1", service.port, n_requests=min(unique, 50),
            concurrency=8, n_tasks=_N_TASKS, unique=unique, m=2,
            seed=seed if scenario == "warm" else seed + 10_000,
        )
        before = _counts(service)
        stats = await _client_subprocess(service.port, unique=unique, seed=seed)
        hits, misses, dispatches, batches, jobs = (
            after - b for after, b in zip(_counts(service), before)
        )
    return {
        "rps": stats["rps"],
        "ok": stats["ok"],
        "errors": stats["errors"],
        "statuses": stats["statuses"],
        "latency_ms": stats["latency_ms"],
        "cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
        "pool_dispatches": dispatches,
        "jobs_per_batch": round(jobs / batches, 3) if batches else None,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 3), round(q2, 3), round(q3, 3)]


def _summary(runs: list[dict]) -> dict:
    out = {}
    for scenario in SCENARIOS:
        rps = {
            side: [r["rps"] for r in runs
                   if r["side"] == side and r["scenario"] == scenario]
            for side in SIDES
        }
        default, single = rps["default"], rps["batch_max=1"]
        out[scenario] = {
            "pairs": len(default),
            "rps_quartiles": {side: _quartiles(v) for side, v in rps.items()},
            "default_over_batch_max_1": round(
                statistics.median(default) / statistics.median(single), 3
            ),
            "default_wins": sum(d > s for d, s in zip(default, single)),
            "p99_ms_median": {
                side: statistics.median(
                    r["latency_ms"]["p99"] for r in runs
                    if r["side"] == side and r["scenario"] == scenario
                )
                for side in SIDES
            },
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="one pair, no ratio gate, nothing archived")
    args = ap.parse_args(argv)

    pairs = 1 if args.smoke else PAIRS
    print(f"default vs batch_max=1, {pairs} alternating pair(s), "
          f"{_REQUESTS} requests at {_CONCURRENCY} connections, 1 worker",
          flush=True)
    runs: list[dict] = []
    for pair in range(pairs):
        order = list(SIDES) if pair % 2 == 0 else list(reversed(SIDES))
        seed = 100 * pair
        # both sides of a scenario run back to back: a run's speed depends
        # on the run before it in this process, so a side's warm run must
        # not always follow its own cold run
        for scenario in SCENARIOS:
            for side in order:
                result = asyncio.run(_run(side, scenario, seed))
                runs.append({"pair": pair, "side": side, "scenario": scenario,
                             **result})
                lat = result["latency_ms"]
                print(
                    f"  pair {pair} {side:11s} {scenario:4s} "
                    f"{result['rps']:8.1f} rps  p50 {lat['p50']:7.2f} ms  "
                    f"p99 {lat['p99']:7.2f} ms  {result['ok']} ok  "
                    f"jobs/batch {result['jobs_per_batch']}",
                    flush=True,
                )

    failures = [
        f"pair {r['pair']} {r['side']} {r['scenario']}: statuses "
        f"{r['statuses']}, {r['errors']} transport errors"
        for r in runs
        if r["ok"] != _REQUESTS or r["errors"]
    ]
    summary = _summary(runs)
    for scenario, s in summary.items():
        print(f"  {scenario}: default / batch_max=1 = "
              f"{s['default_over_batch_max_1']:.2f}x on median RPS, default "
              f"ahead in {s['default_wins']}/{s['pairs']} pairs", flush=True)

    if not args.smoke:
        speedup = summary["cold"]["default_over_batch_max_1"]
        if speedup < MIN_COLD_SPEEDUP:
            failures.append(
                f"cold: default is {speedup:.2f}x batch_max=1, "
                f"below the {MIN_COLD_SPEEDUP:.0f}x gate"
            )
        warm_rps, cold_rps = (
            summary[scenario]["rps_quartiles"]["default"][1]
            for scenario in ("warm", "cold")
        )
        if warm_rps <= cold_rps:
            failures.append(f"default: warm median {warm_rps:.1f} rps is not "
                            f"above cold {cold_rps:.1f}")
        # warm /schedule traffic is plan-cache hits that bypass the pool
        for warm in (r for r in runs if r["scenario"] == "warm"):
            cold = next(r for r in runs if r["scenario"] == "cold"
                        and (r["pair"], r["side"]) == (warm["pair"], warm["side"]))
            if warm["cache_hit_rate"] <= 0.9:
                failures.append(f"pair {warm['pair']} {warm['side']} warm: "
                                f"cache hit rate {warm['cache_hit_rate']}")
            if warm["pool_dispatches"] >= cold["pool_dispatches"] / 2:
                failures.append(
                    f"pair {warm['pair']} {warm['side']} warm: "
                    f"{warm['pool_dispatches']} pool dispatches, cold had "
                    f"{cold['pool_dispatches']}"
                )
        report = {
            "benchmark": "service-throughput",
            "batch_max": {
                side: over.get("batch_max", ServiceConfig().batch_max)
                for side, over in SIDES.items()
            },
            "workload": {
                "requests": _REQUESTS, "concurrency": _CONCURRENCY,
                "workers": 1, "n_tasks": _N_TASKS, "admit_frac": _ADMIT_FRAC,
                "unique_task_sets": SCENARIOS,
            },
            "host": {
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "platform": _platform.platform(),
                "python": _platform.python_version(),
            },
            "runs": runs,
            "summary": summary,
            "failures": failures,
        }
        out = _ROOT / "results" / "bench" / "BENCH_service.json"
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}", flush=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
