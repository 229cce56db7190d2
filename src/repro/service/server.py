"""The asyncio scheduling daemon: HTTP/JSON front end over the pipeline.

Request flow for ``POST /schedule``::

    parse rows → sort → key → cache probe ──hit──→ respond (no pool entry)
                                  └─miss─→ micro-batcher → process pool → respond

The request's task rows are validated and sorted once; the plan key
hashes those rows, and a miss's pool job solves them.  A miss's result
comes back from the pool worker already encoded, and is cached as those
bytes, which every reply of it splices in; the loop encodes no result.
Concurrent misses for one plan share one solve, whose outcome a done
callback on the batcher's future settles (no task per miss).

A handler that can answer at once (a cache hit, ``/healthz``,
``/solvers``, ``/metrics``) returns its ``(status, payload)``; one that
must wait returns an awaitable of it (a miss's shielded outcome, an
admit, an ``/optimal`` solve), which alone runs under the deadline.  A
hit so creates no task.

Robustness:

* **shedding** — at most ``max_inflight`` requests are in progress; the
  excess is refused immediately with 429 (bounded queue, not unbounded
  backlog),
* **deadlines** — each request whose answer is pending waits under
  ``request_timeout`` and answers 504 if the solve can't make it,
* **graceful shutdown** — :meth:`SchedulingService.stop` closes the
  listener, drains every accepted request to a written response, closes
  the batcher (which waits for every dispatch, a solve that outlived its
  requests' deadlines included), and only then closes the pool's pipes
  and joins its workers: an accepted request is never dropped, and
  nothing is cancelled.

HTTP/1.1 framing, the keep-alive loop and the drain on stop come from
:mod:`~repro.service.http11`; routes and response shaping from
:mod:`~repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import logging
import signal
import time

from ..obs import context as obs
from ..obs.metrics import MetricsRegistry
from ..obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from .batcher import MicroBatcher
from .cache import PlanCache
from .config import ServiceConfig
from .faults import FaultInjector
from .http11 import HttpServer, Raw, Request
from .pool import SolveDispatcher
from .protocol import (
    API_VERSION,
    LEGACY_PATHS,
    ROUTES,
    AdmitRequest,
    OptimalRequest,
    ProtocolError,
    ScheduleRequest,
    base_path,
    error_body,
    no_route,
    shape_response,
)

__all__ = ["SchedulingService", "run_service", "serve_until_signalled"]

log = logging.getLogger("repro.service")


class SchedulingService:
    """One daemon instance; embeddable (tests) or run via :func:`run_service`."""

    def __init__(self, config: ServiceConfig | None = None):
        from ..core.admission import AdmissionController

        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = PlanCache(self.config.cache_size)
        spec = self.config.fault_spec()
        self.injector: FaultInjector | None = (
            FaultInjector(spec) if spec.enabled else None
        )
        self.dispatcher = SolveDispatcher(
            self.config.workers,
            metrics=self.metrics,
            retry=self.config.retry_policy(),
            injector=self.injector,
        )
        self.batcher = MicroBatcher(
            self.dispatcher.solve_batch,
            slots=max(self.dispatcher.workers, 1),
            max_batch=self.config.batch_max,
        )
        # one admission session per platform signature, created by the
        # first /admit naming it: requests naming a different platform
        # (m/alpha/static/gamma/f_max) get their own committed plan
        # instead of clobbering the default one
        self._admission_pool: dict[tuple, AdmissionController] = {}
        # plan key -> the outcome of a miss's solve in flight, shared by
        # every request for that key until it ends (single-flight)
        self._solving: dict[str, asyncio.Future] = {}
        self._admit_lock = asyncio.Lock()
        self._exporter: obs.JsonlExporter | None = None
        self._http = HttpServer(
            self._respond,
            self._reject,
            self._chaos if self.injector is not None else None,
        )
        self._in_progress = 0
        self._drained: asyncio.Event = asyncio.Event()
        self._drained.set()
        self._started_at = 0.0
        self._log_task: asyncio.Task | None = None
        # one handler per endpoint of protocol.ROUTES: the "/v1" route and
        # its legacy shim share it (the shim only differs in shaping).  A
        # handler returns (status, payload), or an awaitable of it when
        # the answer must wait
        self._handlers = {
            "/schedule": self._handle_schedule,
            "/admit": self._handle_admit,
            "/optimal": self._handle_optimal,
            "/metrics": self._handle_metrics,
            "/healthz": self._handle_healthz,
            "/solvers": self._handle_solvers,
        }

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._http.port

    async def start(self) -> None:
        self._started_at = time.monotonic()
        if self.config.trace_path:
            self._exporter = obs.JsonlExporter(
                self.config.trace_path, self.config.trace_sample
            )
        await self._http.start(self.config.host, self.config.port)
        if self.config.log_interval > 0:
            self._log_task = asyncio.get_running_loop().create_task(
                self._log_periodically()
            )
        log.info(
            "listening on %s:%d (workers=%d batch_max=%d cache=%d)",
            self.config.host,
            self.port,
            self.config.workers,
            self.config.batch_max,
            self.config.cache_size,
        )
        if self.injector is not None:
            log.warning(
                "CHAOS MODE: fault injection active (%s)",
                self.injector.spec.format(),
            )

    async def stop(self) -> None:
        """Graceful shutdown: drain accepted requests, then tear down."""
        await self._http.close()
        await self._drained.wait()  # every accepted request has responded
        await self.batcher.close()
        if self._log_task is not None:
            self._log_task.cancel()
            self._log_task = None
        await self.dispatcher.close()
        await self._http.close_connections()
        if self._exporter is not None:
            self._exporter.close()
            self._exporter = None
        log.info("shutdown complete: %s", self.metrics.summary_line())

    async def __aenter__(self) -> SchedulingService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _log_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.config.log_interval)
            log.info("%s", self.metrics.summary_line())

    # -- routing + robustness ------------------------------------------------------

    def _reply(self, status: int, payload, path: str, trace_id=None) -> tuple:
        return shape_response(status, payload, path, self.config.shard_id, trace_id)

    def _reject(self, status: int, code: str, message: str, path: str) -> tuple:
        return self._reply(status, error_body(code, message), path)

    async def _chaos(self) -> bool:
        """Hold the response, or sever the connection in place of writing
        it (the client sees a reset and may retry — the request itself was
        fully processed)."""
        await self.injector.maybe_delay()
        if self.injector.should_drop():
            self.metrics.counter("faults_dropped_responses").inc()
            return False
        return True

    async def _respond(self, request: Request) -> tuple:
        """Route one request, with shedding, deadline, and metrics wrapping."""
        method, path, headers, body = request
        if (method, path) not in ROUTES:
            return self._reply(*no_route(method, path), path)
        handler = self._handlers[base_path(path)]
        if path in LEGACY_PATHS:
            self.metrics.counter("legacy_requests_total").inc()

        self.metrics.counter(f"requests_total:{path}").inc()
        if self._in_progress >= self.config.max_inflight:
            self.metrics.counter("shed_total").inc()
            self.metrics.counter(f"responses:{path}:429").inc()
            return self._reply(
                429,
                error_body(
                    "overloaded",
                    "overloaded",
                    {"max_inflight": self.config.max_inflight},
                ),
                path,
                headers.get("x-trace-id") or None,
            )

        self._in_progress += 1
        self._drained.clear()
        self.metrics.gauge("in_progress").set(self._in_progress)
        t0 = time.perf_counter()
        # every routed request runs under a service.request root span (an
        # `x-trace-id` header pins the trace id for client correlation);
        # finished spans land in this capture buffer and feed the
        # stage_ms:* histograms + the JSONL export
        with obs.capture() as spans:
            with obs.span(
                "service.request",
                trace_id=headers.get("x-trace-id") or None,
                path=path,
                method=method,
            ) as root:
                try:
                    answer = self._parse_body(body)  # the body, or a 400
                    if not isinstance(answer, tuple):
                        answer = handler(answer, headers)
                    if not isinstance(answer, tuple):  # pending: wait for it
                        try:
                            answer = await asyncio.wait_for(
                                answer, timeout=self.config.request_timeout
                            )
                        except asyncio.TimeoutError:
                            self.metrics.counter("timeout_total").inc()
                            answer = 504, error_body(
                                "deadline_exceeded",
                                "deadline exceeded",
                                {"timeout_s": self.config.request_timeout},
                            )
                    status, payload = answer
                except ProtocolError as exc:
                    status, payload = 400, error_body(
                        exc.code, str(exc), exc.detail
                    )
                except Exception as exc:  # noqa: BLE001 - must not kill the loop
                    log.exception("unhandled error serving %s %s", method, path)
                    status, payload = 500, error_body(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
                finally:
                    self._in_progress -= 1
                    self.metrics.gauge("in_progress").set(self._in_progress)
                    if self._in_progress == 0:
                        self._drained.set()
                root.set("http_status", status)
                if status >= 500:
                    root.status = "error"
                with obs.span("server.encode") as encode:
                    response = self._reply(status, payload, path, root.trace_id)
                    encode.set("bytes", len(response[1].data))
        self.metrics.observe_stages(spans)
        if self._exporter is not None and spans:
            self._exporter.export(spans)
        self.metrics.histogram(f"latency_ms:{path}").observe(
            (time.perf_counter() - t0) * 1e3
        )
        self.metrics.counter(f"responses:{path}:{status}").inc()
        return response

    @staticmethod
    def _parse_body(body: bytes):
        if not body:
            return {}
        try:
            return json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, error_body("invalid_json", f"invalid JSON body: {exc}")

    # -- endpoint handlers ---------------------------------------------------------

    def _adopt_spans(self, result: dict) -> None:
        """Move worker-shipped spans off a result dict onto this request.

        Called before the result is cached or returned, so neither cached
        plans nor response payloads ever carry the ``_spans`` sidecar.
        """
        for sp in result.pop("_spans", None) or ():
            obs.emit(sp)

    def _handle_schedule(self, body: dict, _headers: dict):
        req = ScheduleRequest.from_body(
            body,
            default_m=self.config.m,
            default_alpha=self.config.alpha,
            default_static=self.config.static,
        )
        # cache identity uses the canonical registry name, so legacy
        # aliases ("der") and canonical spellings share one entry
        key = req.plan_key()
        with obs.span("cache.probe") as probe:
            cached = self.cache.get(key, PlanCache.MISS)
            hit = cached is not PlanCache.MISS
            probe.set("hit", hit)
            outcome = None if hit else self._solving.get(key)
            if outcome is not None:
                # the solve's spans land on the first request's trace only
                probe.set("coalesced", True)
        if hit:
            self.metrics.counter("cache_hits").inc()
            return 200, cached._replace(cache_hit=True)
        self.metrics.counter("cache_misses").inc()
        if outcome is None:
            job = self._job(
                req,
                req.solver,
                method=req.method,
                include_schedule=req.include_schedule,
            )
            outcome = self._solve(key, job)
        else:
            self.metrics.counter("coalesced_total").inc()
        # shielded: a request reaching its deadline answers 504 but leaves
        # the solve running for the other requests waiting on it
        return asyncio.shield(outcome)

    def _solve(self, key: str, job: dict) -> asyncio.Future:
        """Submit one miss's job and record its outcome under ``key``.

        The outcome, ``(status, error body or EncodedResult)``, is shared
        by every request for ``key`` until the solve ends.  The callback
        that settles it runs in a copy of this request's context, so the
        worker's spans land on this request's trace.
        """
        outcome = asyncio.get_running_loop().create_future()
        self._solving[key] = outcome

        def settle(done: asyncio.Future) -> None:
            del self._solving[key]
            try:
                result = done.result()
                self._adopt_spans(result)
                if "error" in result:
                    settled = self._error_status(result), self._worker_error(result)
                else:
                    encoded = result["encoded"]
                    if encoded.degraded_from is not None:
                        self.metrics.counter("degraded_total").inc()
                    else:  # never cache degraded
                        self.cache.put(key, encoded)
                    settled = 200, encoded
            except BaseException as exc:  # a torn-down dispatch included
                outcome.set_exception(exc)
            else:
                outcome.set_result(settled)

        self.batcher.submit(job).add_done_callback(settle)
        return outcome

    def _admission_for(self, req: AdmitRequest):
        """The per-platform admission session for one request (created lazily)."""
        from ..engine import Platform

        platform = Platform(m=req.m, power=req.power, f_max=req.f_max)
        key = platform.signature()
        controller = self._admission_pool.get(key)
        if controller is None:
            from ..core.admission import AdmissionController

            controller = AdmissionController(
                m=req.m, power=req.power, f_max=req.f_max
            )
            self._admission_pool[key] = controller
        return controller

    def _handle_admit(self, body: dict, _headers: dict):
        req = AdmitRequest.from_body(
            body,
            default_m=self.config.m,
            default_alpha=self.config.alpha,
            default_static=self.config.static,
            default_f_max=self.config.f_max,
        )
        return self._admit(req)

    async def _admit(self, req: AdmitRequest):
        async with self._admit_lock:  # admissions are stateful: serialize them
            admission = self._admission_for(req)
            if req.peek:
                return 200, self._peek_snapshot(admission)
            if req.reset:
                admission.reset()
            if req.task is None:
                return 200, {
                    "reset": True,
                    "committed": len(admission),
                }
            # carry the request's trace context onto the executor thread so
            # the admission.check and session.delta spans the admit emits
            # land on this request's capture buffer (and therefore the
            # stage_ms histograms); the response never ships the full plan,
            # so materialization is skipped and the accept path is a pure
            # delta update
            ctx = contextvars.copy_context()
            decision = await asyncio.get_running_loop().run_in_executor(
                None,
                ctx.run,
                functools.partial(
                    admission.try_admit, req.task, materialize=False
                ),
            )
            committed = len(admission)
            total_energy = admission.current_energy
        self.metrics.counter(
            "admissions_accepted" if decision.accepted else "admissions_rejected"
        ).inc()
        return 200, {
            "accepted": decision.accepted,
            "reason": decision.reason,
            "marginal_energy": decision.marginal_energy,
            "committed": committed,
            "total_energy": total_energy,
            "f_max": req.f_max,
            "touched_subintervals": decision.touched_subintervals,
            "total_subintervals": decision.total_subintervals,
        }

    @staticmethod
    def _peek_snapshot(admission) -> dict:
        """Read-only snapshot of one platform's committed plan.

        Floats round-trip JSON bit-exactly (json uses ``repr``), so two
        deployments that built the same plan return byte-identical
        snapshots — the probe the sharding equivalence checks compare.
        """
        session = admission.session
        if session.is_empty:
            return {
                "peek": True,
                "committed": 0,
                "energy": 0.0,
                "boundaries": [],
                "x": [],
                "n_subintervals": 0,
            }
        plan = session.plan()
        return {
            "peek": True,
            "committed": len(admission),
            "energy": float(session.energy),
            "boundaries": [float(b) for b in session.boundaries],
            "x": [[float(v) for v in row] for row in plan.x],
            "n_subintervals": session.n_subintervals,
        }

    def _handle_solvers(self, _body: dict, _headers: dict):
        from ..engine import solver_catalog

        degrade_to = (
            self.config.degrade_to
            if self.config.solver_timeout > 0 and self.config.degrade_to
            else None
        )
        catalog = []
        for entry in solver_catalog():
            entry = dict(entry)
            # exact backends run under the solver timeout and fall back to
            # the configured heuristic; everything else never degrades
            entry["degrades_to"] = degrade_to if entry["optimal_only"] else None
            catalog.append(entry)
        return 200, {
            "api_version": API_VERSION,
            "solvers": catalog,
            "default_method": "der",
            "default_optimal": "interior-point",
        }

    def _job(self, req, canonical_solver: str, **fields) -> dict:
        """The pool job of one solve request: its sorted task rows, its
        platform, ``fields``, and the request's trace context.

        A job running an exact backend also carries the solver timeout and
        fallback.  Only ``optimal:*`` solves are bounded — the registered
        heuristics are polynomial-time and cheap, and bounding them would
        cost one watchdog thread per solve for nothing.
        """
        job = {
            # plain tuples: a NamedTuple row pickles through a Python call
            "tasks": list(map(tuple, req.tasks)),
            "m": req.m,
            "alpha": req.power.alpha,
            "static": req.power.static,
            "gamma": req.power.gamma,
            **fields,
        }
        if (
            self.config.solver_timeout > 0
            and canonical_solver.startswith("optimal:")
        ):
            job["timeout_s"] = self.config.solver_timeout
            if self.config.degrade_to:
                job["fallback"] = self.config.degrade_to
        job["_trace"] = obs.inject()
        return job

    @staticmethod
    def _error_status(result: dict) -> int:
        """HTTP status for a worker error dict (abandoned ⇒ retryable 503)."""
        return 503 if result.get("abandoned") else 500

    @staticmethod
    def _worker_error(result: dict) -> dict:
        """Unified error payload for a failed pool job."""
        code = "abandoned" if result.get("abandoned") else "internal"
        return error_body(code, result["error"])

    def _handle_optimal(self, body: dict, _headers: dict):
        req = OptimalRequest.from_body(
            body,
            default_m=self.config.m,
            default_alpha=self.config.alpha,
            default_static=self.config.static,
        )
        return self._optimal(
            self._job(req, req.canonical_solver, solver=req.solver)
        )

    async def _optimal(self, job: dict):
        result = await self.dispatcher.solve_optimal(job)
        self._adopt_spans(result)
        if "error" in result:
            return self._error_status(result), self._worker_error(result)
        if result.get("degraded"):
            self.metrics.counter("degraded_total").inc()
        return 200, result

    def _handle_metrics(self, _body: dict, headers: dict):
        accept = headers.get("accept", "").lower()
        if "text/plain" in accept or "openmetrics" in accept:
            # Prometheus scrape: text exposition with point-in-time extras
            # the registry doesn't own (uptime, cache fill, batcher state)
            extra = {
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "cache_entries": self.cache.stats()["size"],
                "cache_capacity": self.cache.stats()["capacity"],
                "batcher_batches": self.batcher.batches,
                "batcher_jobs": self.batcher.jobs,
                "batcher_pending": self.batcher.pending,
                "pool_workers": self.dispatcher.workers,
                "pool_dispatches": self.dispatcher.dispatch_count,
            }
            text = render_prometheus(self.metrics.snapshot(), extra_gauges=extra)
            return 200, Raw(text.encode(), _PROM_CONTENT_TYPE)
        return 200, {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats(),
            "batcher": {
                "batches": self.batcher.batches,
                "jobs": self.batcher.jobs,
                "largest_batch": self.batcher.largest_batch,
                "pending": self.batcher.pending,
                "max_batch": self.batcher.max_batch,
            },
            "pool": {
                "workers": self.dispatcher.workers,
                "dispatches": self.dispatcher.dispatch_count,
                "worker_restarts": self.metrics.counter("worker_restarts").value,
                "job_retries": self.metrics.counter("job_retries").value,
                "jobs_abandoned": self.metrics.counter("jobs_abandoned").value,
            },
            "faults": (
                {"spec": self.injector.spec.format(), **self.injector.counts}
                if self.injector is not None
                else None
            ),
        }

    def _handle_healthz(self, _body: dict, _headers: dict):
        return 200, {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "version": _version(),
        }


def _version() -> str:
    from .. import __version__

    return __version__


async def serve_until_signalled(app, on_ready) -> None:
    """Start ``app`` (a daemon or a router), call ``on_ready(app)``, serve
    until SIGINT/SIGTERM, then stop it gracefully."""
    await app.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix platforms
            pass
    try:
        on_ready(app)
        await stop.wait()
    finally:
        await app.stop()


async def run_service(config: ServiceConfig) -> None:
    """Run a service until SIGINT/SIGTERM, then shut down gracefully."""
    await serve_until_signalled(
        SchedulingService(config),
        lambda s: print(f"repro.service listening on http://{s.config.host}:{s.port}"),
    )
