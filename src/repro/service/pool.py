"""Solver backend: picklable batch workers + the pool dispatcher.

Everything submitted crosses process boundaries, so workers are
module-level functions of plain-JSON-shaped arguments (the same rule as
:mod:`repro.experiments.parallel`).  A solved ``/schedule`` job comes back
encoded, as ``{"encoded": EncodedResult}``: the worker writes the result's
JSON bytes from the schedule's columns, so the event loop only splices
them into replies.  Every pool submission is a list
of jobs: one batch from the micro-batcher, or an ``/optimal`` job as a
list of one.  The batcher keeps at most one batch per worker in flight
and gives each freed worker its share of a backlog, so a backlog spreads
over the pool without splitting batches here.

The pool is ``workers`` processes, each behind its own socketpair whose
parent end the event loop reads itself (:class:`_Worker`): a submission
goes loop → pipe → worker → pipe → loop as one pickled ``(fn, jobs)``
frame out and one pickled ``(ok, value)`` frame back, with no helper
thread in the daemon.  ``workers = 0`` runs the same worker functions in
the default thread executor — identical semantics, no process pool —
which is what tests, the smoke target, and small deployments use.
Either way the event loop never blocks on a solve.

Inside a worker, jobs that share a platform signature (m, power model,
heuristic) are *fused*: shifted onto disjoint time windows, concatenated
into one super-instance, and solved by a single vectorized pipeline pass
(see :func:`_solve_fused`).  The fixed per-solve Python/numpy overhead is
paid once per batch instead of once per request.  Batches of more than
one job form only under backlog, so that is the only time fusion runs.

``dispatch_count`` counts pool submissions.  Cache hits bypass this
module entirely, and the tests pin that down by asserting the counter
stays flat across warm requests.

Supervision is per worker: a worker whose pipe reaches EOF (SIGKILLed,
OOM-killed) fails only the submission it was running, with
:class:`WorkerCrash`, and that worker alone is replaced (in thread mode a
chaos-injected :class:`~repro.service.faults.SimulatedWorkerCrash` stands
in for the death).  The failed job list is re-dispatched at most
:class:`~repro.service.config.RetryPolicy` ``.max_retries`` times with
jittered exponential backoff.  A list that crashes again is *abandoned*:
each of its jobs resolves to an error dict (the client gets a clean 5xx,
not a hang), and ``worker_restarts`` / ``job_retries`` /
``jobs_abandoned`` land in the shared :class:`~repro.obs.metrics.
MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import pickle
import random
import signal
import socket
import struct
import time
from collections import deque
from typing import Callable, Sequence

from ..obs import context as obs
from ..obs.metrics import MetricsRegistry
from .config import RetryPolicy
from .faults import FaultInjector, SimulatedWorkerCrash

__all__ = [
    "SolveDispatcher",
    "WorkerCrash",
    "solve_schedule_batch",
    "solve_optimal_batch",
    "solve_optimal_job",
]

log = logging.getLogger("repro.service.pool")


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
    """Start context for pool workers: ``forkserver`` where available.

    The daemon starts workers from a process with threads — the default
    executor's, which run ``/admit`` checks (and every solve in thread
    mode).  Plain ``fork`` there is unsafe: a child forked while some
    thread holds an internal lock inherits that lock forever-held and
    deadlocks silently, which surfaces as a dispatch that never answers.
    ``forkserver`` forks workers from a dedicated single-threaded server
    process instead, and preloading this module there keeps respawned
    workers cheap.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platforms without forkserver
        return multiprocessing.get_context("spawn")
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
    pool submission of :class:`SolveDispatcher` takes."""
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


# -- the pipe between the event loop and a worker ------------------------------------

#: length prefix of every frame on a worker's pipe
_HEADER = struct.Struct("!Q")
#: most bytes the event loop reads from a worker's pipe per wakeup
_READ_SIZE = 1 << 16
#: how long shutdown waits for a worker to exit before SIGKILLing it
_JOIN_S = 5.0


class WorkerCrash(RuntimeError):
    """A pool worker's pipe reached EOF before its reply was whole."""


def _frame(obj) -> bytes:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _reply_frame(ok: bool, value) -> bytes:
    """The ``(ok, value)`` reply frame; what cannot be pickled (or an
    exception that cannot be rebuilt from its pickle) goes home as a
    ``RuntimeError`` carrying its ``repr``."""
    try:
        frame = _frame((ok, value))
        if not ok:
            pickle.loads(memoryview(frame)[_HEADER.size:])
        return frame
    except Exception as exc:  # noqa: BLE001 - reported at the dispatch instead
        return _frame((False, RuntimeError(repr(exc if ok else value))))


def _recv_exact(sock: socket.socket, size: int) -> bytearray | None:
    """``size`` bytes from ``sock``, or None at EOF."""
    buf = bytearray(size)
    view = memoryview(buf)
    while view:
        n = sock.recv_into(view)
        if not n:
            return None
        view = view[n:]
    return buf


def _serve(sock: socket.socket) -> None:
    """A pool worker's main loop (runs in the worker process).

    Reads one ``(fn, jobs)`` frame at a time, runs ``fn(jobs)`` and writes
    back one ``(ok, value)`` frame: ``(True, result)``, or ``(False, exc)``
    for an exception ``fn`` raised, which the dispatch re-raises.  EOF on
    the pipe (the daemon closed it, or died) ends the loop.
    """
    # the daemon ends its workers by closing their pipes; a terminal's
    # Ctrl-C reaches the whole process group and must not cut a solve short
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with sock:
        while True:
            head = _recv_exact(sock, _HEADER.size)
            body = None if head is None else _recv_exact(sock, _HEADER.unpack(head)[0])
            if body is None:
                return
            fn, jobs = pickle.loads(body)
            try:
                reply = _reply_frame(True, fn(jobs))
            except Exception as exc:  # noqa: BLE001 - re-raised at the dispatch
                reply = _reply_frame(False, exc)
            try:
                sock.sendall(reply)
            except OSError:  # the daemon closed the pipe mid-solve
                return


class _Worker:
    """One pool process behind its own socketpair, read by the event loop.

    The loop never blocks on it: a reply is read as its bytes arrive and
    handed to the submission's future once its whole length-prefixed
    frame is in, and only then is the worker idle again (``on_idle``).
    EOF — the process died, or a short frame ended — fails the submission
    in flight with :class:`WorkerCrash` and reports the worker gone
    (``on_exit``).  Requests are written with a blocking ``sendall`` and
    only to an idle worker, which is already waiting to read them.
    """

    def __init__(self, sock: socket.socket, process, loop, on_idle, on_exit):
        self.sock = sock
        self.process = process
        self._loop = loop
        self._on_idle = on_idle
        self._on_exit = on_exit
        self._buf = bytearray()
        self._reply: asyncio.Future | None = None
        loop.add_reader(sock.fileno(), self._on_readable)

    @classmethod
    def spawn(cls, ctx, loop, on_idle, on_exit) -> "_Worker":
        parent, child = socket.socketpair()
        try:
            process = ctx.Process(
                target=_serve, args=(child,), name="repro-pool-worker", daemon=True
            )
            process.start()
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        return cls(parent, process, loop, on_idle, on_exit)

    def call(self, frame: bytes) -> asyncio.Future:
        """Send one request frame; the future gets the reply frame's body."""
        self._reply = reply = self._loop.create_future()
        try:
            self.sock.sendall(frame)
        except OSError:
            # the worker is gone (or the frame went out half-written):
            # shutting the pipe makes EOF answer the reply, and the worker
            # reads EOF too
            self.sock.shutdown(socket.SHUT_RDWR)
        return reply

    def _on_readable(self) -> None:
        try:
            data = self.sock.recv(_READ_SIZE, socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return
        except ConnectionError:  # reset: the worker died
            data = b""
        if not data:
            self.close(WorkerCrash("pool worker exited before its reply was whole"))
            self._on_exit(self)
            return
        self._buf += data
        if len(self._buf) < _HEADER.size:
            return
        end = _HEADER.size + _HEADER.unpack_from(self._buf)[0]
        if len(self._buf) < end:
            return
        body = self._buf[_HEADER.size:end]
        del self._buf[:end]
        reply, self._reply = self._reply, None
        if reply is not None and not reply.done():  # not cancelled meanwhile
            reply.set_result(body)
        self._on_idle(self)

    def close(self, exc: BaseException) -> None:
        """Stop reading, close the pipe, and fail the reply in flight."""
        self._loop.remove_reader(self.sock.fileno())
        self.sock.close()
        reply, self._reply = self._reply, None
        if reply is not None and not reply.done():
            reply.set_exception(exc)


# -- async dispatcher (runs on the event loop) --------------------------------------


class SolveDispatcher:
    """Owns the worker processes, supervises them, and awaits job batches.

    Workers start on the first dispatch, up to ``workers`` of them, and
    stay bound to that dispatch's event loop.  A submission takes an idle
    worker, or waits in FIFO order for one.  Every submission runs under
    the supervision loop of :meth:`_dispatch_supervised`: a worker that
    dies fails only its own submission, is replaced, and the batch is
    re-dispatched at most ``retry.max_retries`` times with jittered
    exponential backoff; beyond that the batch's jobs end as per-job error
    dicts so waiters are always answered.  Counters land in ``metrics``:

    * ``worker_restarts`` — dead workers (one each) that were replaced,
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self._rng = random.Random(
            injector.spec.seed if injector is not None else 0
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._live: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._waiting: deque[asyncio.Future] = deque()
        self._exited: list = []  # dead workers' processes, not yet reaped
        self._closed = False
        self.dispatch_count = 0  # pool submissions (batches), NOT jobs

    # -- workers -------------------------------------------------------------------

    def _spawn(self) -> _Worker:
        self._reap()
        worker = _Worker.spawn(self._ctx, self._loop, self._release, self._replace)
        self._live.append(worker)
        return worker

    async def _acquire(self) -> _Worker:
        """An idle worker, a new one while fewer than ``workers`` live, or
        the next one to come free."""
        loop = asyncio.get_running_loop()
        if self._closed:
            raise RuntimeError("solve pool is shut down")
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError("solve pool is bound to another event loop")
        if self._idle:
            return self._idle.pop()
        if len(self._live) < self.workers:
            return self._spawn()
        waiter = loop.create_future()
        self._waiting.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled() and waiter.exception() is None:
                self._release(waiter.result())  # handed over as we were cancelled
            raise

    def _release(self, worker: _Worker) -> None:
        """Hand an idle worker to the longest waiter, else park it."""
        while self._waiting:
            waiter = self._waiting.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    def _replace(self, dead: _Worker) -> None:
        """A worker's pipe reached EOF: count it and, when a submission is
        waiting, start its replacement at once (else the next
        :meth:`_acquire` does)."""
        self._live.remove(dead)
        if dead in self._idle:
            self._idle.remove(dead)
        self._exited.append(dead.process)
        if self._closed:
            return
        self.metrics.counter("worker_restarts").inc()
        if any(not waiter.done() for waiter in self._waiting):
            try:
                self._release(self._spawn())
            except OSError:
                log.exception("could not replace a dead pool worker")

    def _reap(self) -> None:
        """Release the handles of dead workers the forkserver has reaped."""
        pending = []
        for process in self._exited:
            if process.exitcode is None:
                pending.append(process)
            else:
                process.close()
        self._exited = pending

    # -- supervision ---------------------------------------------------------------

    async def _attempt(self, fn: Callable, jobs: list[dict], frame, attempt: int):
        """One submission of ``fn(jobs)`` (``frame`` pickled) to a worker."""
        kill = self.injector is not None and self.injector.should_kill(attempt)
        if self.workers == 0:
            if kill:
                raise SimulatedWorkerCrash("chaos: worker killed mid-solve")
            self.dispatch_count += 1
            return await asyncio.get_running_loop().run_in_executor(None, fn, jobs)
        worker = await self._acquire()
        if kill:  # before anything is sent: the crash is this attempt's own
            worker.process.kill()
        self.dispatch_count += 1
        ok, value = pickle.loads(await worker.call(frame))
        if not ok:
            raise value
        return value

    async def _dispatch_supervised(self, fn: Callable, jobs: list[dict]) -> list[dict]:
        """Run ``fn(jobs)`` as one pool submission under the crash/retry
        supervisor; always one result dict per job.

        A worker that dies takes its capture buffer with it, so each crash
        is reconstructed here as a ``pool.attempt`` span per traced job.
        Those spans ride the job's eventual result, or its error dict when
        the submission is abandoned — the abandoned attempts stay visible
        on the trace even though the workers that ran them never reported.
        """
        frame = _frame((fn, jobs)) if self.workers > 0 else None
        crash_spans: list[list[dict]] = [[] for _ in jobs]
        attempt = 0
        while True:
            t0 = time.time()
            try:
                results = await self._attempt(fn, jobs, frame, attempt)
            except (WorkerCrash, SimulatedWorkerCrash) as exc:
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
                if self.workers == 0:  # no process to replace: accounting only
                    self.metrics.counter("worker_restarts").inc()
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
        """One micro-batch → one pool submission → ordered results;
        abandonment yields per-job error dicts."""
        return await self._dispatch_supervised(solve_schedule_batch, list(jobs))

    async def solve_optimal(self, job: dict) -> dict:
        """One ``/optimal`` job, dispatched as a list of one."""
        return (await self._dispatch_supervised(solve_optimal_batch, [job]))[0]

    def _close_pipes(self) -> list:
        """The loop side of shutdown: refuse new submissions, fail the
        waiting ones, stop reading every worker and close its pipe (an
        idle worker reads EOF and exits).  Returns the processes to join."""
        self._closed = True
        down = RuntimeError("solve pool is shut down")
        while self._waiting:
            waiter = self._waiting.popleft()
            if not waiter.done():
                waiter.set_exception(down)
        for worker in self._live:
            worker.close(down)
        processes = [w.process for w in self._live] + self._exited
        self._live, self._idle, self._exited = [], [], []
        return processes

    @staticmethod
    def _join(processes: list) -> None:
        """Wait for each process to exit, SIGKILLing any still alive after
        :data:`_JOIN_S` in all."""
        deadline = time.monotonic() + _JOIN_S
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.exitcode is None:
                process.kill()
                process.join(_JOIN_S)
            if process.exitcode is not None:
                process.close()

    def shutdown(self) -> None:
        """Close every worker's pipe and join every worker (blocking).

        Call it on the event loop's thread or after that loop has ended;
        a running daemon uses :meth:`close`, which joins off the loop.
        """
        self._join(self._close_pipes())

    async def close(self) -> None:
        """:meth:`shutdown` from the running loop: the pipes close here,
        and the join runs in the default executor."""
        processes = self._close_pipes()
        if processes:
            await asyncio.get_running_loop().run_in_executor(
                None, self._join, processes
            )
