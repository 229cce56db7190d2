"""Chaos smoke: drive the daemon under seeded fault injection, assert survival.

``python -m repro.service.chaos`` (or ``make chaos-smoke``) runs four
legs against one process and exits nonzero if any robustness guarantee
is violated:

1. **supervision** — a thread-mode dispatcher under ``kill=1.0`` chaos:
   every first dispatch crashes, every retry must succeed, and the
   retried results must be *bit-identical* to an unfaulted dispatcher's
   (solvers are deterministic, so a re-dispatch is a pure re-execution).
   A second pass with ``max_retries=0`` pins the abandonment path: jobs
   end as ``abandoned`` error dicts, never hang.
2. **service under chaos** — a real daemon (process pool) with seeded
   kill/delay/drop faults, hammered by the chaos load generator (which
   injects malformed payloads client-side).  Every request must be
   accounted for — answered, rejected with 400, or a connection error
   bounded by the number of injected drops — with zero 500s, exactly
   one worker restart per injected kill, no abandoned job and no 503
   (a kill costs only its own batch, whose one retry succeeds), and
   client p99 under the budget.
3. **equality through chaos** — a fresh task set solved through the
   chaotic daemon must match a direct in-process engine solve exactly.
4. **degradation** — a registered hanging ``optimal:*`` solver behind a
   short ``solver_timeout`` must answer 200 with ``degraded_from`` set
   (and bump ``degraded_total``), not hang or 500.

All fault decisions derive from ``--seed``, so a failure replays.
"""

from __future__ import annotations

import asyncio
import sys
import time

from ..obs.metrics import MetricsRegistry
from ..smoke import Smoke, main
from .config import RetryPolicy, ServiceConfig
from .faults import FaultInjector, FaultSpec
from .http11 import request_once
from .loadgen import _make_tasksets, run_loadgen
from .pool import SolveDispatcher
from .server import SchedulingService

__all__ = ["check"]

#: Server-side fault mix for the smoke run.  Kill is high so worker
#: supervision is exercised even in short runs; delay/drop stay low so the
#: p99 budget reflects the service, not the injector.
SERVER_SPEC = "kill=0.2,delay=0.08:0.004,drop=0.04,seed={seed}"
CLIENT_SPEC = "malform=0.1,seed={seed}"

#: leg 2's load: the request count CI runs (at seed 7 every fault kind
#: fires), with the worker pool and p99 budget the smoke always used
_REQUESTS = 60
_CONCURRENCY = 8
_WORKERS = 2
_P99_BUDGET_MS = 5000.0


def _jobs_from_rows(tasksets, *, include_schedule: bool = False) -> list[dict]:
    """Wire-shaped schedule jobs (what the server hands the dispatcher)."""
    return [
        {
            "tasks": [(r, d, c, "") for (r, d, c) in rows],
            "m": 4,
            "alpha": 3.0,
            "static": 0.1,
            "gamma": 1.0,
            "method": "der",
            "include_schedule": include_schedule,
        }
        for rows in tasksets
    ]


def _reference_energy(rows) -> float:
    """Direct in-process engine solve of one loadgen-shaped task set."""
    from ..core.task import Task, TaskSet
    from ..engine import Platform, SolveRequest, solve
    from ..power.models import PolynomialPower

    request = SolveRequest(
        tasks=TaskSet(Task(release=r, deadline=d, work=c) for (r, d, c) in rows),
        platform=Platform(m=4, power=PolynomialPower(alpha=3.0, static=0.1)),
    )
    return float(solve("der", request, validate=False).energy)


async def _request_with_retry(
    host: str, port: int, method: str, path: str, payload=None, *, attempts: int = 6
):
    """One request, retried across chaos-injected connection drops."""
    last: Exception | None = None
    for _ in range(attempts):
        try:
            return await request_once(host, port, method, path, payload)
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            last = exc
    raise ConnectionError(f"request {path} failed {attempts} times: {last}")


async def _check_supervision(seed: int, smoke: Smoke) -> dict:
    """Leg 1: forced crashes in thread mode — retry, bit-identity, abandonment."""
    jobs = _jobs_from_rows(_make_tasksets(3, 5, seed))

    clean = SolveDispatcher(0)
    baseline = await clean.solve_batch(jobs)

    metrics = MetricsRegistry()
    chaotic = SolveDispatcher(
        0,
        metrics=metrics,
        retry=RetryPolicy(max_retries=1, backoff_base=0.001, backoff_cap=0.01),
        injector=FaultInjector(FaultSpec.parse(f"kill=1.0,seed={seed}")),
    )
    retried = await chaotic.solve_batch(jobs)

    if any("error" in r for r in retried):
        smoke.fail(f"supervised retry produced errors: {retried}")
    # each solved job is its result's encoded bytes
    replies = [r.get("encoded") for r in retried]
    expected = [r.get("encoded") for r in baseline]
    if None in expected or replies != expected:
        smoke.fail(
            f"retried results {replies} != unfaulted results {expected} "
            "(retries must be bit-identical re-executions)"
        )
    if metrics.counter("worker_restarts").value < 1:
        smoke.fail("forced kill did not register a worker restart")
    if metrics.counter("job_retries").value != len(jobs):
        smoke.fail(
            f"job_retries={metrics.counter('job_retries').value}, "
            f"expected {len(jobs)}"
        )
    if metrics.counter("jobs_abandoned").value != 0:
        smoke.fail("retry budget of 1 must absorb a single kill")

    # abandonment: no retry budget → every job resolves to an error dict
    metrics0 = MetricsRegistry()
    doomed = SolveDispatcher(
        0,
        metrics=metrics0,
        retry=RetryPolicy(max_retries=0),
        injector=FaultInjector(FaultSpec.parse(f"kill=1.0,seed={seed}")),
    )
    abandoned = await doomed.solve_batch(jobs)
    if not all(r.get("abandoned") for r in abandoned):
        smoke.fail(f"max_retries=0 should abandon every job: {abandoned}")
    if metrics0.counter("jobs_abandoned").value != len(jobs):
        smoke.fail(
            f"jobs_abandoned={metrics0.counter('jobs_abandoned').value}, "
            f"expected {len(jobs)}"
        )
    return {
        "retried_jobs": len(jobs),
        "worker_restarts": metrics.counter("worker_restarts").value,
        "abandoned_jobs": metrics0.counter("jobs_abandoned").value,
    }


async def _check_degradation(seed: int, smoke: Smoke) -> dict:
    """Leg 4: a hung exact solver must degrade, visibly, within the timeout."""
    from ..engine import register
    from ..engine.registry import _REGISTRY

    hang_name = "optimal:chaos-hang"

    @register(hang_name)
    def _hang(request, options):  # pragma: no cover - parked, then abandoned
        time.sleep(60.0)
        raise AssertionError("unreachable")

    config = ServiceConfig(
        port=0,
        workers=0,
        solver_timeout=0.2,
        degrade_to="subinterval-der",
        log_interval=0,
        faults="",
    )
    try:
        async with SchedulingService(config) as service:
            rows = _make_tasksets(1, 5, seed)[0]
            t0 = time.perf_counter()
            status, payload = await _request_with_retry(
                "127.0.0.1",
                service.port,
                "POST",
                "/optimal",
                {"tasks": rows, "m": 4, "solver": hang_name},
            )
            wall = time.perf_counter() - t0
            if status != 200:
                smoke.fail(f"hung solver answered {status}, not degraded 200")
            if payload.get("degraded_from") != hang_name:
                smoke.fail(f"degraded_from missing from response: {payload}")
            if payload.get("solver") != "subinterval-der":
                smoke.fail(f"degraded solve should use the fallback: {payload}")
            if wall > 5.0:
                smoke.fail(f"degradation took {wall:.1f}s — the hang leaked")
            _, m = await _request_with_retry(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            degraded_total = m["metrics"]["counters"].get("degraded_total", 0)
            if degraded_total < 1:
                smoke.fail("degraded_total counter did not record the fallback")
    finally:
        _REGISTRY.pop(hang_name, None)
    return {"degraded_status": status, "degraded_wall_s": round(wall, 3)}


async def check(smoke: Smoke, seed: int = 7) -> None:
    """Run every chaos leg at ``seed``."""
    supervision = await _check_supervision(seed, smoke)

    config = ServiceConfig(
        port=0,
        workers=_WORKERS,
        cache_size=0,  # every request must dispatch, so kills actually land
        log_interval=0,
        faults=SERVER_SPEC.format(seed=seed),
    )
    async with SchedulingService(config) as service:
        stats = await run_loadgen(
            "127.0.0.1",
            service.port,
            n_requests=_REQUESTS,
            concurrency=_CONCURRENCY,
            n_tasks=6,
            unique=_REQUESTS,  # distinct sets: no miss waits on another's solve
            include_schedule=False,
            seed=seed,
            chaos=CLIENT_SPEC.format(seed=seed),
        )
        # equality leg: a fresh (uncached, unfused) set through the chaotic
        # daemon must match the in-process engine bit for bit; pre-sort into
        # the server's canonical order so both sides sum in the same order
        fresh = sorted(_make_tasksets(1, 6, seed + 1000)[0])
        status, payload = await _request_with_retry(
            "127.0.0.1",
            service.port,
            "POST",
            "/schedule",
            {
                "tasks": fresh, "m": 4, "alpha": 3.0, "static": 0.1,
                "method": "der", "include_schedule": False,
            },
        )
        _, metrics_page = await _request_with_retry(
            "127.0.0.1", service.port, "GET", "/metrics"
        )

    chaos = stats["chaos"]
    faults = metrics_page.get("faults") or {}
    pool = metrics_page["pool"]

    answered = sum(stats["statuses"].values()) + chaos["malformed_sent"]
    lost = _REQUESTS - answered - stats["errors"]
    if lost != 0:
        smoke.fail(
            f"{lost} request(s) unaccounted for "
            f"(answered={answered} errors={stats['errors']} of {_REQUESTS})"
        )
    if stats["errors"] > faults.get("drop", 0):
        smoke.fail(
            f"client errors ({stats['errors']}) exceed injected drops "
            f"({faults.get('drop', 0)}) — something failed beyond the chaos"
        )
    if stats["statuses"].get("500", 0) or chaos["malformed_statuses"].get("500", 0):
        smoke.fail(f"500 responses under chaos (must be clean 4xx/503): {stats}")
    if chaos["malformed_rejected"] != chaos["malformed_sent"]:
        smoke.fail(
            f"malformed payloads not all rejected with 400: "
            f"{chaos['malformed_statuses']}"
        )
    # Each worker sits behind its own pipe, so a kill costs only the batch
    # the killed worker was running, and that batch's retry (kills fire on
    # first attempts only) runs on a live worker: one restart per kill, no
    # job abandoned, no 503.
    if pool["worker_restarts"] != faults.get("kill", 0):
        smoke.fail(
            f"worker_restarts={pool['worker_restarts']} != injected kills "
            f"({faults.get('kill', 0)})"
        )
    if pool["jobs_abandoned"] != 0:
        smoke.fail(f"jobs_abandoned={pool['jobs_abandoned']} (retry_max=1 absorbs a kill)")
    if stats["statuses"].get("503", 0):
        smoke.fail(f"{stats['statuses']['503']} 503 response(s) under kills")
    p99 = stats["latency_ms"]["p99"]
    if p99 is None or p99 > _P99_BUDGET_MS:
        smoke.fail(f"client p99 {p99} ms exceeds budget {_P99_BUDGET_MS} ms")
    if status != 200:
        smoke.fail(f"equality probe answered {status}: {payload}")
    else:
        expect = _reference_energy(fresh)
        if payload.get("energy") != expect:
            smoke.fail(
                f"energy through chaotic daemon {payload.get('energy')!r} != "
                f"direct engine solve {expect!r}"
            )

    degradation = await _check_degradation(seed, smoke)
    print(
        f"chaos-smoke seed={seed}: "
        f"{stats['requests']} requests, statuses {stats['statuses']}, "
        f"errors {stats['errors']}, "
        f"malformed {chaos['malformed_sent']} "
        f"(400×{chaos['malformed_rejected']})"
    )
    print(
        f"  faults injected: {faults}  "
        f"pool: restarts {pool['worker_restarts']} "
        f"retries {pool['job_retries']} "
        f"abandoned {pool['jobs_abandoned']}"
    )
    print(
        f"  p99 {p99} ms; degradation {degradation}; "
        f"supervision {supervision}"
    )


if __name__ == "__main__":
    sys.exit(main("chaos-smoke", check))
