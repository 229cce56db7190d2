"""Solver backend: picklable batch workers + the executor dispatcher.

Everything submitted crosses process boundaries, so workers are
module-level functions of plain-JSON-shaped arguments (the same rule as
:mod:`repro.experiments.parallel`).  A solved ``/schedule`` job comes back
encoded, as ``{"encoded": EncodedResult}``: the worker writes the result's
JSON bytes from the schedule's columns, so the event loop only splices
them into replies.  Every executor submission is a list
of jobs: one batch from the micro-batcher, or an ``/optimal`` job as a
list of one.  The batcher keeps at most one batch per worker in flight
and gives each freed worker its share of a backlog, so a backlog spreads
over the pool without splitting batches here.

``workers = 0`` runs the same worker functions in the default thread
executor — identical semantics, no process pool — which is what tests,
the smoke target, and small deployments use.  Either way the event loop
never blocks on a solve.

Inside a worker, jobs that share a platform signature (m, power model,
heuristic) are *fused*: shifted onto disjoint time windows, concatenated
into one super-instance, and solved by a single vectorized pipeline pass
(see :func:`_solve_fused`).  The fixed per-solve Python/numpy overhead is
paid once per batch instead of once per request.  Batches of more than
one job form only under backlog, so that is the only time fusion runs.

``dispatch_count`` counts executor submissions.  Cache hits bypass this
module entirely, and the tests pin that down by asserting the counter
stays flat across warm requests.

Supervision: a dispatch that dies with a broken executor (worker process
SIGKILLed, OOM-killed, or a chaos-injected :class:`~repro.service.faults.
SimulatedWorkerCrash`) respawns the pool and re-dispatches the in-flight
job list at most :class:`~repro.service.config.RetryPolicy` ``.max_retries``
times with jittered exponential backoff.  A list that crashes again is
*abandoned*: each of its jobs resolves to an error dict (the client gets
a clean 5xx, not a hang), and ``worker_restarts`` / ``job_retries`` /
``jobs_abandoned`` land in the shared :class:`~repro.obs.metrics.
MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Sequence

from ..obs import context as obs
from ..obs.metrics import MetricsRegistry
from .config import RetryPolicy
from .faults import FaultInjector, SimulatedWorkerCrash, kill_one_worker

__all__ = [
    "SolveDispatcher",
    "solve_schedule_batch",
    "solve_optimal_batch",
    "solve_optimal_job",
]


def _queue_span(carrier: dict, end: float | None = None) -> dict:
    """The queue/batch wait reconstructed from the carrier's enqueue time.

    The batcher itself knows nothing about tracing: the server stamps
    ``enqueued_at`` into the carrier at submit time, and the worker closes
    the interval when the batch actually starts solving.
    """
    start = float(carrier.get("enqueued_at", time.time()))
    return obs.manual_span(
        "batch.queue",
        trace_id=str(carrier["trace_id"]),
        parent_id=str(carrier["parent"]),
        start=start,
        end=end,
    )


def _pool_context():
    """Start context for worker pools: ``forkserver`` where available.

    The daemon (re)creates executors from a process full of threads — the
    event loop, executor management threads, queue feeders.  Plain ``fork``
    there is unsafe: a child forked while some thread holds an internal
    lock inherits that lock forever-held and deadlocks silently, which
    surfaces as a dispatch future that never resolves.  ``forkserver``
    forks workers from a dedicated single-threaded server process instead,
    and preloading this module there keeps respawned workers cheap.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platforms without forkserver
        return None
    ctx.set_forkserver_preload(["repro.service.pool"])
    return ctx


# -- picklable workers (run in pool processes) --------------------------------------


def _build_instance(job: dict):
    from ..core.task import Task, TaskSet
    from ..power.models import PolynomialPower

    tasks = TaskSet(
        Task(release=r, deadline=d, work=c, name=name)
        for (r, d, c, name) in job["tasks"]
    )
    power = PolynomialPower(
        alpha=job["alpha"], static=job["static"], gamma=job.get("gamma", 1.0)
    )
    return tasks, int(job["m"]), power


#: Registry solvers whose solves decompose per column under time-shifted
#: concatenation — the precondition for the fused super-instance pass.
_FUSABLE = ("subinterval-even", "subinterval-der")


def _degradation_kwargs(job: dict) -> dict:
    """``solve()`` timeout/fallback kwargs carried on the job, if any."""
    kwargs = {}
    if job.get("timeout_s"):
        kwargs["timeout"] = float(job["timeout_s"])
        if job.get("fallback"):
            kwargs["fallback"] = job["fallback"]
    return kwargs


def _solve_one_schedule(job: dict) -> dict:
    from ..engine import Platform, SolveRequest, solve
    from .protocol import EncodedResult

    tasks, m, power = _build_instance(job)
    request = SolveRequest(tasks=tasks, platform=Platform(m=m, power=power))
    result = solve(
        job["method"], request, validate=False, **_degradation_kwargs(job)
    )
    out = {
        "kind": result.kind,
        "energy": float(result.energy),
        "n_tasks": len(tasks),
        "m": m,
        "method": job["method"],
        "solver": result.solver,
    }
    if result.degraded:
        out["degraded"] = True
        out["degraded_from"] = result.degraded_from
        out["degraded_reason"] = result.degraded_reason
    if result.deadline_misses:
        out["feasible"] = False
        out["deadline_misses"] = [int(i) for i in result.deadline_misses]
    for key in ("replans", "iterations", "backend"):
        if key in result.extras:
            out[key] = result.extras[key]
    schedule = result.schedule if job.get("include_schedule", True) else None
    with obs.traced("pool.pack"):
        return {"encoded": EncodedResult.of(out, schedule)}


def _fuse_key(job: dict) -> tuple | None:
    """Signature under which independent jobs can share one solver pass.

    Instances fuse only when they agree on the platform (m, power model)
    and map to the same fusable registry solver; everything else —
    ``online`` replays, baselines, exact solvers — solves alone.
    """
    from ..engine import UnknownSolverError, resolve_name

    try:
        name = resolve_name(job["method"])
    except UnknownSolverError:
        return None  # surfaces as a per-job error from the solo path
    if name not in _FUSABLE:
        return None
    return (
        int(job["m"]),
        float(job["alpha"]),
        float(job["static"]),
        float(job.get("gamma", 1.0)),
        name,
    )


def _solve_fused(jobs: Sequence[dict]) -> list[dict]:
    """Solve same-platform instances as ONE vectorized pipeline pass.

    Independent instances are shifted onto pairwise-disjoint time windows
    and concatenated into a single super-instance.  Because no task window
    ever crosses an instance boundary, every stage of the subinterval
    pipeline — timeline, ideal solution, DER allocation, water-filling,
    packing, frequency refinement — decomposes per column exactly as it
    would for each instance alone, while numpy sweeps the whole batch in
    one pass.  The solution is then split back per instance by task-id
    range and unshifted (float error ~1 ulp of the offset, far inside the
    validator's 1e-9 tolerance).
    """
    from ..core.schedule import Schedule
    from ..core.scheduler import SubintervalScheduler
    from ..core.task import Task, TaskSet
    from ..engine import resolve_name
    from ..power.models import PolynomialPower
    from .protocol import EncodedResult

    m = int(jobs[0]["m"])
    solver = resolve_name(jobs[0]["method"])
    method = {"subinterval-even": "even", "subinterval-der": "der"}[solver]
    power = PolynomialPower(
        alpha=jobs[0]["alpha"],
        static=jobs[0]["static"],
        gamma=jobs[0].get("gamma", 1.0),
    )

    instances = [
        TaskSet(
            Task(release=r, deadline=d, work=c, name=name)
            for (r, d, c, name) in job["tasks"]
        )
        for job in jobs
    ]

    fused_tasks: list[Task] = []
    offsets: list[float] = []
    first_id: list[int] = [0]
    base = 0.0
    for ts in instances:
        r0, d1 = ts.horizon
        off = base - r0
        offsets.append(off)
        fused_tasks.extend(ts.shifted(off))
        first_id.append(first_id[-1] + len(ts))
        base += (d1 - r0) + 1.0

    result = SubintervalScheduler(TaskSet(fused_tasks), m, power).final(method)
    fused = result.schedule

    # split the columns back per instance (task ids are contiguous per
    # instance) and unshift them
    out = []
    for j, (job, ts) in enumerate(zip(jobs, instances)):
        rows = (fused.task >= first_id[j]) & (fused.task < first_id[j + 1])
        off = offsets[j]
        schedule = Schedule.from_columns(
            ts,
            m,
            power,
            fused.task[rows] - first_id[j],
            fused.core[rows],
            fused.start[rows] - off,
            fused.end[rows] - off,
            fused.frequency[rows],
        )
        res = {
            "kind": f"S^{result.kind}",
            "energy": schedule.total_energy(),
            "n_tasks": len(ts),
            "m": m,
            "method": job["method"],
            "solver": solver,
        }
        include = job.get("include_schedule", True)
        out.append({"encoded": EncodedResult.of(res, schedule if include else None)})
    return out


def solve_schedule_batch(jobs: Sequence[dict]) -> list[dict]:
    """Solve a batch of schedule jobs into ``{"encoded": EncodedResult}``
    dicts; per-job failures become error dicts.

    Jobs sharing a platform signature (:func:`_fuse_key`) are fused into
    one vectorized solver pass; anything unfusable — ``online`` jobs,
    malformed payloads, or a fused group that fails as a whole — falls
    back to per-job solving so one bad instance never poisons a batch.
    """
    out: list[dict | None] = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        try:
            key = _fuse_key(job)
        except Exception:  # noqa: BLE001 - malformed job: surface per-job error
            key = None
        if key is not None:
            groups.setdefault(key, []).append(i)
        else:
            out[i] = _solve_solo(jobs[i])
    for idxs in groups.values():
        if len(idxs) > 1:
            group = [jobs[i] for i in idxs]
            t0 = time.time()
            try:
                results = _solve_fused(group)
            except Exception:  # noqa: BLE001 - fall back to per-job isolation
                pass
            else:
                t1 = time.time()
                for i, res in zip(idxs, results):
                    carrier = jobs[i].get("_trace")
                    if carrier is not None:
                        res["_spans"] = _fused_spans(
                            carrier, jobs[i], t0, t1, len(idxs)
                        )
                    out[i] = res
                continue
        for i in idxs:
            out[i] = _solve_solo(jobs[i])
    return out  # type: ignore[return-value]


def _fused_spans(
    carrier: dict, job: dict, t0: float, t1: float, group_size: int
) -> list[dict]:
    """Manual span chain for one job solved inside a fused group pass.

    A fused solve has no per-job call stack to trace through, so the
    queue → pool.solve → engine.solve → solver chain is reconstructed
    from the group's shared wall-clock interval; ``fused=True`` and the
    group size mark these spans as shared work.
    """
    from ..engine import resolve_name

    trace_id = str(carrier["trace_id"])
    queue = _queue_span(carrier, end=t0)
    pool_sp = obs.manual_span(
        "pool.solve",
        trace_id=trace_id,
        parent_id=str(carrier["parent"]),
        start=t0,
        end=t1,
        fused=True,
        group_size=group_size,
    )
    solver = resolve_name(job["method"])
    engine_sp = obs.manual_span(
        "engine.solve",
        trace_id=trace_id,
        parent_id=pool_sp["span_id"],
        start=t0,
        end=t1,
        solver=solver,
        fused=True,
    )
    solver_sp = obs.manual_span(
        f"solver:{solver}",
        trace_id=trace_id,
        parent_id=engine_sp["span_id"],
        start=t0,
        end=t1,
        fused=True,
    )
    return [queue, pool_sp, engine_sp, solver_sp]


def _solve_solo(job: dict) -> dict:
    carrier = job.get("_trace")
    if carrier is None:
        try:
            return _solve_one_schedule(job)
        except Exception as exc:  # noqa: BLE001 - isolated per job
            return {"error": f"{type(exc).__name__}: {exc}"}
    # traced: re-enter the request's trace, buffer this job's spans, and
    # ship them home on the result dict (the server stitches them back)
    with obs.capture() as spans, obs.activate(carrier):
        spans.append(_queue_span(carrier))
        try:
            with obs.span("pool.solve", fused=False):
                result = _solve_one_schedule(job)
        except Exception as exc:  # noqa: BLE001 - isolated per job
            result = {"error": f"{type(exc).__name__}: {exc}"}
    result["_spans"] = spans
    return result


def solve_optimal_job(job: dict) -> dict:
    """Solve one exact convex program (``POST /optimal`` payload).

    ``job["solver"]`` is any registered ``optimal:<backend>`` name (or a
    legacy bare backend name); dispatch goes through the engine registry.
    ``job["timeout_s"]``/``job["fallback"]`` bound the solve: a hung or
    crashing exact backend degrades to the fallback heuristic and the
    response records the degradation instead of surfacing an error.
    """
    carrier = job.get("_trace")
    if carrier is None:
        return _solve_one_optimal(job)
    with obs.capture() as spans, obs.activate(carrier):
        spans.append(_queue_span(carrier))
        with obs.span("pool.solve", fused=False):
            result = _solve_one_optimal(job)
    result["_spans"] = spans
    return result


def solve_optimal_batch(jobs: Sequence[dict]) -> list[dict]:
    """:func:`solve_optimal_job` over a job list, the shape every
    executor submission of :class:`SolveDispatcher` takes."""
    return [solve_optimal_job(job) for job in jobs]


def _solve_one_optimal(job: dict) -> dict:
    import numpy as np

    from ..engine import Platform, SolveRequest, solve

    tasks, m, power = _build_instance(job)
    request = SolveRequest(tasks=tasks, platform=Platform(m=m, power=power))
    try:
        result = solve(
            job["solver"],
            request,
            validate=False,
            materialize=False,
            **_degradation_kwargs(job),
        )
    except Exception as exc:  # noqa: BLE001 - isolated per job
        return {"error": f"{type(exc).__name__}: {exc}"}
    if result.degraded:
        # the fallback heuristic has no convex-backend extras; report the
        # degraded solve in schedule terms so the caller still gets energy
        return {
            "solver": result.solver,
            "registry_solver": result.solver,
            "kind": result.kind,
            "energy": float(result.energy),
            "n_tasks": len(tasks),
            "m": m,
            "degraded": True,
            "degraded_from": result.degraded_from,
            "degraded_reason": result.degraded_reason,
        }
    return {
        "solver": result.extras["backend"],
        "registry_solver": result.solver,
        "iterations": result.extras["iterations"],
        "energy": float(result.energy),
        "available_times": np.asarray(result.extras["available_times"]).tolist(),
        "frequencies": np.asarray(result.extras["frequencies"]).tolist(),
        "n_tasks": len(tasks),
        "m": m,
    }


# -- async dispatcher (runs on the event loop) --------------------------------------


class SolveDispatcher:
    """Owns the executor, supervises its workers, and awaits job batches.

    Every executor submission runs under the supervision loop of
    :meth:`_dispatch_supervised`: a dead worker (broken pool or simulated
    crash) respawns the executor and re-dispatches the batch at most
    ``retry.max_retries`` times with jittered exponential backoff; beyond
    that the batch's jobs end as per-job error dicts so waiters are
    always answered.  Counters land in ``metrics``:

    * ``worker_restarts`` — times a dead worker (pool) was replaced,
    * ``job_retries``    — jobs re-dispatched after a crash,
    * ``jobs_abandoned`` — jobs that crashed again on their retry.
    """

    def __init__(
        self,
        workers: int,
        *,
        metrics: MetricsRegistry | None = None,
        retry: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self._ctx = _pool_context() if workers > 0 else None
        self._pool: ProcessPoolExecutor | None = (
            self._make_pool() if workers > 0 else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self._rng = random.Random(
            injector.spec.seed if injector is not None else 0
        )
        self._closed = False
        self.dispatch_count = 0  # executor submissions (batches), NOT jobs

    # -- supervision ---------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=self._ctx)

    @staticmethod
    def _reap(broken: ProcessPoolExecutor) -> None:
        """SIGKILL every remaining worker of a poisoned executor.

        A worker that dies mid-``put`` can take the shared result-queue
        lock to its grave; surviving siblings then deadlock acquiring it,
        and the executor's management thread blocks forever joining them —
        which in turn hangs interpreter shutdown (``_python_exit`` joins
        management threads).  The pool is already condemned when this runs,
        so nothing of value is lost by killing the rest of its workers
        outright, which unblocks the join and lets the management thread
        finish tearing the executor down.
        """
        try:
            procs = list((getattr(broken, "_processes", None) or {}).values())
        except RuntimeError:  # racing the management thread's own cleanup
            procs = []
        for proc in procs:
            try:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, ValueError):
                continue

    def _respawn(self, broken: ProcessPoolExecutor | None) -> None:
        """Replace a dead worker; idempotent across concurrent failures.

        With a real pool, only the first dispatch to observe the breakage
        recreates the executor (later observers see ``self._pool`` already
        moved on and only retry).  In thread mode (``workers == 0``) there
        is no pool to rebuild — the "respawn" is purely accounting for the
        simulated crash.
        """
        if broken is None:
            self.metrics.counter("worker_restarts").inc()
            return
        if self._pool is broken and not self._closed:
            self.metrics.counter("worker_restarts").inc()
            self._reap(broken)
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = self._make_pool()

    async def _dispatch_supervised(self, fn: Callable, jobs: list[dict]) -> list[dict]:
        """Run ``fn(jobs)`` as one executor submission under the crash/retry
        supervisor; always one result dict per job.

        A worker that dies takes its capture buffer with it, so each crash
        is reconstructed here as a ``pool.attempt`` span per traced job.
        Those spans ride the job's eventual result, or its error dict when
        the submission is abandoned — the abandoned attempts stay visible
        on the trace even though the workers that ran them never reported.
        """
        loop = asyncio.get_running_loop()
        crash_spans: list[list[dict]] = [[] for _ in jobs]
        attempt = 0
        while True:
            pool = self._pool
            t0 = time.time()
            try:
                if self.injector is not None and self.injector.should_kill(
                    attempt
                ):
                    if pool is None or not kill_one_worker(pool):
                        raise SimulatedWorkerCrash(
                            "chaos: worker killed mid-solve"
                        )
                self.dispatch_count += 1
                results = await loop.run_in_executor(pool, fn, jobs)
            except (BrokenExecutor, SimulatedWorkerCrash) as exc:
                for job, spans in zip(jobs, crash_spans):
                    carrier = job.get("_trace")
                    if carrier is not None:
                        spans.append(
                            obs.manual_span(
                                "pool.attempt",
                                trace_id=str(carrier["trace_id"]),
                                parent_id=str(carrier["parent"]),
                                start=t0,
                                status="error",
                                attempt=attempt + 1,
                                outcome="crashed",
                                error=type(exc).__name__,
                            )
                        )
                self._respawn(pool)
                if attempt >= self.retry.max_retries:
                    self.metrics.counter("jobs_abandoned").inc(len(jobs))
                    message = (
                        f"dispatch abandoned after {attempt + 1} worker "
                        f"crash(es): {type(exc).__name__}: {exc}"
                    )
                    results = [{"error": message, "abandoned": True} for _ in jobs]
                    for err, spans in zip(results, crash_spans):
                        if spans:
                            spans[-1]["attrs"]["outcome"] = "abandoned"
                            err["_spans"] = spans
                    return results
                attempt += 1
                self.metrics.counter("job_retries").inc(len(jobs))
                await asyncio.sleep(self.retry.delay(attempt, self._rng))
            else:
                for res, spans in zip(results, crash_spans):
                    if spans:
                        res.setdefault("_spans", []).extend(spans)
                return results

    # -- public API ----------------------------------------------------------------

    async def solve_batch(self, jobs: Sequence[dict]) -> list[dict]:
        """One micro-batch → one executor submission → ordered results;
        abandonment yields per-job error dicts."""
        return await self._dispatch_supervised(solve_schedule_batch, list(jobs))

    async def solve_optimal(self, job: dict) -> dict:
        """One ``/optimal`` job, dispatched as a list of one."""
        return (await self._dispatch_supervised(solve_optimal_batch, [job]))[0]

    def shutdown(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=False)
            self._pool = None
