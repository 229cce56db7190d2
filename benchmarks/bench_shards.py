"""Sharded tier vs one daemon: throughput evidence + session equivalence.

Two phases, one archived report (``results/bench/BENCH_shards.json``;
``BENCH_shards_smoke.json`` for smoke runs):

1. **Throughput** — two deployments with the same number of solver
   processes, each booted as its own ``repro serve`` process tree:

   * ``single``: ``repro serve --workers 2`` (one daemon, 2 pool workers),
   * ``sharded``: ``repro serve --shards 2 --workers 1`` (a router in
     front of 2 daemons with 1 pool worker each).

   Each boot serves three scenarios from this (client) process through
   :func:`repro.service.loadgen.run_loadgen`: cold n=20, m=4
   ``/schedule`` traffic with schedules returned (every task set new) at
   2 and at 16 connections, then the PR 3 mix (95% ``/schedule`` / 5%
   ``/admit``, 3-task sets cycled over 50, so mostly plan-cache hits) at
   64 connections.  Deployments alternate which runs first over
   ``PAIRS`` pairs (1 in a smoke run), so host-speed drift lands on
   both.  Each scenario records RPS, latency percentiles and the CPU its
   process group spent per request (the router's own share separately).
   These numbers are evidence, not a gate.
2. **Equivalence** (hard gate) — a seeded 500-event ``/admit`` stream
   over three platforms through a 3-shard router must be bit-identical
   — every per-event ack and the final plan snapshots (boundaries, x,
   energy via ``peek``) — to the same stream through a single-process
   ``SchedulingService``.  Any divergence fails the run regardless of
   host.

Usage::

    python -m benchmarks.bench_shards --smoke
    python -m benchmarks.bench_shards
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform as _platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.service import SchedulingService, ServiceConfig, ShardRouter
from repro.service.http11 import HttpClient, request_once
from repro.service.loadgen import run_loadgen

_ROOT = Path(__file__).resolve().parent.parent

#: the two deployments compared, as ``repro serve`` flags
DEPLOYMENTS = {
    "single": ["--workers", "2"],
    "sharded": ["--shards", "2", "--workers", "1"],
}

#: the platforms the equivalence stream is spread over — distinct
#: signatures, so a 3-shard run genuinely exercises the hash ring
PLATFORMS = (
    {"f_max": 2.0},
    {"f_max": 2.5, "m": 2},
    {"f_max": 3.0, "static": 0.05},
)


#: alternating single/sharded boot pairs of a full run (a smoke run has 1)
PAIRS = 6


def _scenarios(smoke: bool) -> dict[str, dict]:
    """run_loadgen arguments of each throughput scenario."""
    cold = dict(n_tasks=20, m=4, include_schedule=True)
    return {
        "cold-c2": dict(cold, n_requests=40 if smoke else 300, concurrency=2),
        "cold-c16": dict(cold, n_requests=80 if smoke else 600, concurrency=16),
        "mix-c64": dict(
            n_requests=120 if smoke else 1000, concurrency=64, n_tasks=3,
            unique=50, admit_frac=0.05, include_schedule=False,
        ),
    }


def _config(**over) -> ServiceConfig:
    return ServiceConfig(
        **{
            "port": 0,
            "workers": 0,
            "log_interval": 0.0,
            "batch_window": 0.0,
            **over,
        }
    )


def _group_cpu_s(pgid: int) -> dict[int, float]:
    """CPU seconds (user + system) of every live process in a group, by pid."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while listing
        if int(fields[2]) == pgid:  # fields[0] is the state, [2] the pgrp
            out[int(entry)] = (int(fields[11]) + int(fields[12])) / tick
    return out


class _Deployment:
    """One ``repro serve`` process tree in its own session (process group)."""

    def __init__(self, name: str, logdir: Path):
        self.name = name
        self.log = open(logdir / f"{name}.log", "w", encoding="utf-8")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--log-interval", "0", *DEPLOYMENTS[name]],
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,
        )
        line = self.proc.stdout.readline().decode()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"{name} deployment did not start: {line!r}")
        self.port = int(match.group(1))

    def cpu_s(self) -> tuple[float, float]:
        """(whole group, the serve process itself) CPU seconds so far."""
        per_pid = _group_cpu_s(self.proc.pid)
        return sum(per_pid.values()), per_pid.get(self.proc.pid, 0.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
        self.proc.stdout.close()
        self.log.close()


async def _serve_scenarios(dep: _Deployment, scenarios: dict, seed: int) -> dict:
    status, _ = await request_once("127.0.0.1", dep.port, "GET", "/v1/healthz")
    if status != 200:
        raise RuntimeError(f"{dep.name}: /v1/healthz answered {status}")
    # untimed: concurrent solves start every pool worker of every daemon
    await run_loadgen("127.0.0.1", dep.port, n_requests=8, concurrency=8,
                      n_tasks=20, unique=8, seed=seed + 99)
    out = {}
    for i, (label, kwargs) in enumerate(scenarios.items()):
        # every cold task set is new: a distinct seed per scenario and run
        kwargs = {"unique": kwargs["n_requests"], **kwargs}
        cpu0, own0 = dep.cpu_s()
        stats = await run_loadgen("127.0.0.1", dep.port, seed=seed + i, **kwargs)
        cpu1, own1 = dep.cpu_s()
        n = kwargs["n_requests"]
        out[label] = {
            "rps": stats["rps"],
            "ok": stats["ok"],
            "errors": stats["errors"],
            "latency_ms": stats["latency_ms"],
            "cpu_ms_per_req": round((cpu1 - cpu0) * 1e3 / n, 3),
            "serve_process_cpu_ms_per_req": round((own1 - own0) * 1e3 / n, 3),
        }
    return out


def _throughput(pairs: int, scenarios: dict, seed: int) -> dict:
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-shards-") as logdir:
        for pair in range(pairs):
            order = ("single", "sharded") if pair % 2 == 0 else ("sharded", "single")
            for name in order:
                dep = _Deployment(name, Path(logdir))
                try:
                    result = asyncio.run(
                        _serve_scenarios(dep, scenarios, seed + 100 * pair)
                    )
                finally:
                    dep.stop()
                runs.append({"pair": pair, "deployment": name, "scenarios": result})
                print(
                    f"  pair {pair} {name:8s} " + "  ".join(
                        f"{label} {r['rps']:8.1f} rps" for label, r in result.items()
                    ),
                    flush=True,
                )
    summary = {}
    for label in scenarios:
        rps = {
            name: [r["scenarios"][label]["rps"] for r in runs if r["deployment"] == name]
            for name in DEPLOYMENTS
        }
        def cpu(name, key):
            return statistics.median(
                r["scenarios"][label][key] for r in runs if r["deployment"] == name
            )

        single, sharded = statistics.median(rps["single"]), statistics.median(rps["sharded"])
        summary[label] = {
            "median_rps": {"single": single, "sharded": sharded},
            "sharded_over_single": round(sharded / single, 3),
            "sharded_wins": sum(s > o for s, o in zip(rps["sharded"], rps["single"])),
            "pairs": len(rps["single"]),
            "median_cpu_ms_per_req": {
                name: cpu(name, "cpu_ms_per_req") for name in DEPLOYMENTS
            },
            # the process `repro serve` started: the daemon itself, or the router
            "median_serve_process_cpu_ms_per_req": {
                name: cpu(name, "serve_process_cpu_ms_per_req") for name in DEPLOYMENTS
            },
        }
    return {"runs": runs, "summary": summary}


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


async def _drive_stream(port: int, n_events: int, seed: int):
    """Replay the seeded admit mix; returns (acks, peeks) as JSON strings."""
    streams = [
        _make_stream(n_events // len(PLATFORMS), seed + i)
        for i in range(len(PLATFORMS))
    ]
    client = HttpClient("127.0.0.1", port)
    await client.connect()
    acks: list[str] = []
    try:
        for platform in PLATFORMS:
            status, _ = await client.request(
                "POST", "/v1/admit", {"reset": True, **platform}
            )
            if status != 200:
                raise RuntimeError(f"admit reset answered {status}")
        for step in range(max(len(s) for s in streams)):
            for i, platform in enumerate(PLATFORMS):
                if step >= len(streams[i]):
                    continue
                status, body = await client.request(
                    "POST", "/v1/admit",
                    {"task": streams[i][step], **platform},
                )
                if status != 200:
                    raise RuntimeError(
                        f"admit event {step} platform {i} answered {status}"
                    )
                acks.append(json.dumps(body["result"], sort_keys=True))
        peeks = []
        for platform in PLATFORMS:
            _, body = await client.request(
                "POST", "/v1/admit", {"peek": True, **platform}
            )
            peeks.append(json.dumps(body["result"], sort_keys=True))
    finally:
        await client.close()
    return acks, peeks


async def _equivalence(n_events: int, seed: int) -> dict:
    """3-shard router vs single-process engine on the same admit stream."""
    router = ShardRouter(_config(), shards=3)
    await router.start()
    try:
        sharded_acks, sharded_peeks = await _drive_stream(
            router.port, n_events, seed
        )
    finally:
        await router.stop()

    service = SchedulingService(_config())
    await service.start()
    try:
        single_acks, single_peeks = await _drive_stream(
            service.port, n_events, seed
        )
    finally:
        await service.stop()

    divergent = sum(a != b for a, b in zip(sharded_acks, single_acks))
    # archive a digest of each snapshot, not the full allocation matrix:
    # the sha256 over the canonical JSON is what the bit-equality gate
    # compares, and it keeps the report reviewable
    summaries = []
    for p in sharded_peeks:
        snap = json.loads(p)
        summaries.append({
            "committed": snap["committed"],
            "energy": snap["energy"],
            "n_subintervals": snap["n_subintervals"],
            "sha256": hashlib.sha256(p.encode()).hexdigest(),
        })
    return {
        "events": len(sharded_acks),
        "platforms": len(PLATFORMS),
        "acks_bit_equal": sharded_acks == single_acks,
        "divergent_acks": divergent,
        "snapshots_bit_equal": sharded_peeks == single_peeks,
        "final_snapshots": summaries,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small fast run")
    ap.add_argument("--events", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    pairs = 1 if args.smoke else PAIRS
    n_events = args.events or (60 if args.smoke else 500)
    scenarios = _scenarios(args.smoke)

    flags = {name: " ".join(argv) for name, argv in DEPLOYMENTS.items()}
    print(
        f"throughput: single ({flags['single']}) vs sharded ({flags['sharded']}), "
        f"{pairs} alternating pair(s)",
        flush=True,
    )
    throughput = _throughput(pairs, scenarios, args.seed)
    for label, s in throughput["summary"].items():
        print(
            f"  {label}: median {s['median_rps']['single']:.1f} (single) vs "
            f"{s['median_rps']['sharded']:.1f} (sharded) rps = "
            f"{s['sharded_over_single']:.2f}x, sharded ahead in "
            f"{s['sharded_wins']}/{s['pairs']} pairs",
            flush=True,
        )

    print(f"equivalence: {n_events}-event admit stream, 3 shards vs 1 process",
          flush=True)
    equivalence = asyncio.run(_equivalence(n_events, args.seed))
    print(
        f"  acks bit-equal: {equivalence['acks_bit_equal']}, "
        f"snapshots bit-equal: {equivalence['snapshots_bit_equal']}",
        flush=True,
    )

    report = {
        "benchmark": "sharded-router",
        "mode": "smoke" if args.smoke else "full",
        "deployments": flags,
        "scenarios": scenarios,
        "seed": args.seed,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": _platform.platform(),
            "python": _platform.python_version(),
        },
        "throughput": throughput,
        "equivalence": equivalence,
    }
    out = args.out
    if out is None:
        stem = "BENCH_shards_smoke" if args.smoke else "BENCH_shards"
        out = _ROOT / "results" / "bench" / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", flush=True)

    failures: list[str] = []
    if not equivalence["acks_bit_equal"]:
        failures.append(
            f"{equivalence['divergent_acks']} admit acks diverged between "
            "the 3-shard and single-process runs"
        )
    if not equivalence["snapshots_bit_equal"]:
        failures.append(
            "final plan snapshots (boundaries/x/energy) diverged between "
            "the 3-shard and single-process runs"
        )
    for run in throughput["runs"]:
        for label, r in run["scenarios"].items():
            if r["errors"] or r["ok"] != scenarios[label]["n_requests"]:
                failures.append(
                    f"{run['deployment']} {label}: {r['ok']} ok, {r['errors']} errors"
                )
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
