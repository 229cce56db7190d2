"""The front router of the sharded serving tier (``repro serve --shards N``).

One asyncio process owns the public listen socket and fans requests out
to N shard processes (:mod:`repro.service.shard`), each a complete
:class:`~repro.service.server.SchedulingService`:

* **stateless traffic** (``/schedule``, ``/optimal``, ``/solvers``) is
  balanced by least-outstanding across live shards; shard 429s pass
  through, and when *every* shard is saturated the router sheds itself
  with an aggregated 429 (``max_inflight = shards × per-shard bound``),
* **stateful traffic** (``/admit``) is placed by consistent hash of the
  request's platform signature (:func:`~repro.service.shard.platform_key`),
  so each admission session lives on exactly one shard and its delta
  stream is bit-identical to a single-process deployment; admits to one
  shard run one at a time under that shard's lock, admits to different
  shards in parallel,
* **shard death** is absorbed: the failed shard is respawned in place
  (same ring position) and its admission sessions are rebuilt by
  replaying the router's journal of acknowledged admits before the
  triggering request is retried — once per death, however many requests
  saw it,
* **observability** is merged: ``GET /metrics`` aggregates every shard's
  JSON page under per-shard keys, the Prometheus exposition renders all
  shards plus the router through one family writer with ``shard="<i>"``
  labels, and the router forwards/creates ``x-trace-id`` so shard-side
  spans join the same trace as the router's ``router.request`` span.

Forwarded responses pass through **byte-for-byte** (no re-serialization),
so a ``/v1`` payload served through the router is exactly what the shard
produced — envelope, ``meta.shard`` and all.

Everything else is the daemon's own code: HTTP framing and the
connection loop from :mod:`~repro.service.http11`, the route table and
``/v1``/legacy shaping from :mod:`~repro.service.protocol`, the
span→``stage_ms`` ingest from :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from ..obs import context as obs
from ..obs.metrics import MetricsRegistry
from ..obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus_multi
from .config import ServiceConfig
from .http11 import (
    HttpClient,
    HttpServer,
    Raw,
    Request,
    encode_request,
    request_once,
)
from .protocol import ROUTES, base_path, error_body, no_route, shape_response
from .server import serve_until_signalled
from .shard import HashRing, ShardManager, platform_key

__all__ = ["ShardRouter", "run_sharded_service"]

log = logging.getLogger("repro.service.router")

#: shard response headers the router passes back to its client
_PASSTHROUGH_HEADERS = ("deprecation", "link")


class ShardRouter:
    """Listen-socket owner + request fan-out for a sharded deployment."""

    def __init__(self, config: ServiceConfig, shards: int | None = None):
        n = shards if shards is not None else config.shards
        if n < 1:
            raise ValueError("a sharded deployment needs shards >= 1")
        self.config = config
        self.n = int(n)
        self.metrics = MetricsRegistry()
        self.manager = ShardManager(config, self.n)
        self.ring = HashRing(range(self.n))
        self._outstanding = [0] * self.n
        self._rr = 0  # least-outstanding tie-breaker
        # one lock per shard: its admits run one at a time under it, so the
        # journal order is the shard's processing order, and a dead shard
        # is respawned and replayed under it exactly once
        self._locks = [asyncio.Lock() for _ in range(self.n)]
        # idle keep-alive connections to each shard, reused across requests
        self._idle: list[list[HttpClient]] = [[] for _ in range(self.n)]
        # platform key → ordered acknowledged /admit bodies; replayed onto
        # a respawned shard to rebuild its admission sessions
        self._journal: dict[str, list[dict]] = {}
        self._http = HttpServer(self._respond, self._reject)
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._http.port

    async def start(self) -> None:
        self._started_at = time.monotonic()
        await self.manager.start()  # shards first: never accept before ready
        await self._http.start(self.config.host, self.config.port)
        log.info(
            "router listening on %s:%d (%d shards: %s)",
            self.config.host,
            self.port,
            self.n,
            ", ".join(str(self.manager.get(i).port) for i in range(self.n)),
        )

    async def stop(self) -> None:
        await self._http.close()
        # let client connections unwind before the shards they were
        # forwarded to are torn down
        await self._http.close_connections()
        for shard_id in range(self.n):
            await self._close_idle(shard_id)
        await self.manager.stop()
        log.info("router shutdown complete: %s", self.metrics.summary_line())

    async def __aenter__(self) -> ShardRouter:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- routing -------------------------------------------------------------------

    def _reply(self, status: int, payload, path: str, trace_id=None) -> tuple:
        return shape_response(status, payload, path, "router", trace_id)

    def _reject(self, status: int, code: str, message: str, path: str) -> tuple:
        return self._reply(status, error_body(code, message), path)

    def _pick_stateless(self) -> int:
        """Least-outstanding live shard (round-robin tie-break)."""
        alive = [
            i for i in range(self.n)
            if self.manager.shards[i] is not None and self.manager.get(i).alive
        ]
        if not alive:
            alive = list(range(self.n))  # all dead: forwarding will respawn
        self._rr += 1
        return min(
            alive,
            key=lambda i: (self._outstanding[i], (i - self._rr) % self.n),
        )

    def _all_saturated(self) -> bool:
        return all(
            self._outstanding[i] >= self.config.max_inflight
            for i in range(self.n)
        )

    async def _respond(self, request: Request) -> tuple:
        method, path, headers, _ = request
        if (method, path) not in ROUTES:
            return self._reply(*no_route(method, path), path)
        base = base_path(path)

        self.metrics.counter(f"requests_total:{path}").inc()
        t0 = time.perf_counter()
        with obs.capture() as spans:
            with obs.span(
                "router.request",
                trace_id=headers.get("x-trace-id") or None,
                path=path,
                method=method,
            ) as root:
                if base == "/metrics":
                    response = await self._merged_metrics(
                        path, headers, root.trace_id
                    )
                elif base == "/healthz":
                    response = self._reply(
                        200, self._health_payload(), path, root.trace_id
                    )
                elif self._all_saturated():
                    self.metrics.counter("shed_total").inc()
                    response = self._reply(
                        429,
                        error_body(
                            "overloaded",
                            "all shards overloaded",
                            {
                                "max_inflight": self.n
                                * self.config.max_inflight,
                                "shards": self.n,
                            },
                        ),
                        path,
                        root.trace_id,
                    )
                else:
                    response = await self._forward(request, base, root)
                status = response[0]
                root.set("http_status", status)
        self.metrics.observe_stages(spans)
        self.metrics.histogram(f"latency_ms:{path}").observe(
            (time.perf_counter() - t0) * 1e3
        )
        self.metrics.counter(f"responses:{path}:{status}").inc()
        return response

    # -- forwarding ----------------------------------------------------------------

    async def _forward(self, request: Request, base: str, root) -> tuple:
        method, path, headers, body = request
        if base == "/admit":
            try:
                admit_body = json.loads(body.decode()) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                admit_body = None  # shard answers the 400; any shard will do
            key = platform_key(admit_body, self.config)
            shard_id = self.ring.lookup(key)
        else:
            shard_id = self._pick_stateless()
        root.set("shard", shard_id)
        fwd = {"x-trace-id": root.trace_id}
        if "accept" in headers:
            fwd["accept"] = headers["accept"]
        data = encode_request(method, path, body, fwd)

        if base == "/admit":
            # admissions are stateful: one at a time per shard, so the
            # journal order matches the shard's processing order exactly
            async with self._locks[shard_id]:
                result = await self._dispatch(shard_id, data, locked=True)
                if result is not None and admit_body is not None:
                    self._journal_admit(key, admit_body, result[0])
        else:
            result = await self._dispatch(shard_id, data, locked=False)

        if result is None:
            return self._reply(
                502,
                error_body(
                    "bad_gateway",
                    f"shard {shard_id} unavailable",
                    {"shard": shard_id},
                ),
                path,
                root.trace_id,
            )
        status, resp_headers, resp_body = result
        self.metrics.counter(f"routed:shard-{shard_id}").inc()
        passthrough = {
            name.title(): resp_headers[name]
            for name in _PASSTHROUGH_HEADERS
            if name in resp_headers
        }
        ctype = resp_headers.get("content-type", "application/json")
        return status, Raw(resp_body, ctype), passthrough or None

    async def _dispatch(self, shard_id: int, data: bytes, locked: bool):
        """One forward with shard-death recovery; None when the retry fails.

        ``locked`` says the caller already holds the shard's lock (an
        admit), under which recovery must run.
        """
        self._outstanding[shard_id] += 1
        try:
            for attempt in (1, 2):
                idle = self._idle[shard_id]
                if idle:
                    client = idle.pop()
                else:
                    client = HttpClient("127.0.0.1", self.manager.get(shard_id).port)
                try:
                    result = await client.request_raw(data)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    await client.close()
                    if attempt == 2:
                        return None
                    if locked:
                        await self._recover(shard_id)
                    else:
                        async with self._locks[shard_id]:
                            await self._recover(shard_id)
                    continue
                if client.port == self.manager.get(shard_id).port:
                    self._idle[shard_id].append(client)
                else:  # the shard was respawned on a new port meanwhile
                    await client.close()
                return result
        finally:
            self._outstanding[shard_id] -= 1
        return None  # pragma: no cover - loop always returns

    async def _recover(self, shard_id: int) -> None:
        """Respawn a dead shard and replay its admission sessions.

        The caller holds the shard's lock, so of all the requests that saw
        one death only the first respawns and replays; the rest find the
        shard alive again.
        """
        shard = self.manager.shards[shard_id]
        if shard is not None and shard.alive:
            return  # transient connection error, or already recovered
        await self.manager.respawn(shard_id)
        self.metrics.counter("shard_respawns_total").inc()
        await self._close_idle(shard_id)  # connections to the dead process
        await self._replay(shard_id)

    async def _close_idle(self, shard_id: int) -> None:
        # swap the list out first: concurrent forwards pop from and append
        # to the live one while the closes below await
        stale, self._idle[shard_id] = self._idle[shard_id], []
        for client in stale:
            await client.close()

    async def _replay(self, shard_id: int) -> None:
        """Re-admit every journaled body owned by ``shard_id`` (in order).

        The per-platform admit sequence is deterministic, so replaying it
        verbatim rebuilds each session bit-for-bit: the same tasks are
        accepted with the same plans (rejected entries reject again and
        change nothing).  Iterates a snapshot: admits to other shards may
        add platform keys while this awaits.
        """
        client = HttpClient("127.0.0.1", self.manager.get(shard_id).port)
        replayed = 0
        try:
            for key, bodies in list(self._journal.items()):
                if self.ring.lookup(key) != shard_id:
                    continue
                for body in bodies:
                    status, _ = await client.request("POST", "/admit", body)
                    if status != 200:  # pragma: no cover - deterministic replay
                        log.error(
                            "replay of admit onto shard %d answered %d",
                            shard_id, status,
                        )
                    replayed += 1
        finally:
            await client.close()
        if replayed:
            self.metrics.counter("admit_replays_total").inc(replayed)
            log.warning(
                "shard %d: replayed %d journaled admits", shard_id, replayed
            )

    def _journal_admit(self, key: str, body: dict, status: int) -> None:
        if status != 200 or body.get("peek"):
            return  # failed or read-only: no state to rebuild later
        if body.get("reset") and "task" not in body:
            self._journal[key] = []
            return
        self._journal.setdefault(key, []).append(body)

    # -- merged observability ------------------------------------------------------

    async def _shard_metrics_page(self, shard_id: int):
        shard = self.manager.shards[shard_id]
        if shard is None or not shard.alive:
            return None
        try:
            status, page = await request_once(
                "127.0.0.1", shard.port, "GET", "/metrics"
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return None
        return page if status == 200 else None

    def _shard_status(self) -> list[dict]:
        out = []
        for i in range(self.n):
            shard = self.manager.shards[i]
            out.append(
                {
                    "id": i,
                    "port": shard.port if shard is not None else None,
                    "alive": bool(shard is not None and shard.alive),
                    "restarts": shard.restarts if shard is not None else 0,
                    "outstanding": self._outstanding[i],
                }
            )
        return out

    def _health_payload(self) -> dict:
        from .. import __version__

        statuses = self._shard_status()
        return {
            "status": "ok" if all(s["alive"] for s in statuses) else "degraded",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "version": __version__,
            "shards": statuses,
        }

    async def _merged_metrics(self, path, headers, trace_id):
        pages = await asyncio.gather(
            *(self._shard_metrics_page(i) for i in range(self.n))
        )
        accept = headers.get("accept", "").lower()
        uptime = round(time.monotonic() - self._started_at, 3)
        if "text/plain" in accept or "openmetrics" in accept:
            # one family writer across every section: a family present on
            # all shards prints its HELP/TYPE header exactly once
            sections = [
                {
                    "snapshot": self.metrics.snapshot(),
                    "labels": {"shard": "router"},
                    "extra_gauges": {
                        "uptime_seconds": uptime,
                        "shards": self.n,
                    },
                }
            ]
            for i, page in enumerate(pages):
                if page is None:
                    continue
                sections.append(
                    {
                        "snapshot": page.get("metrics") or {},
                        "labels": {"shard": str(i)},
                        "extra_gauges": {
                            "uptime_seconds": page.get("uptime_s", 0.0)
                        },
                    }
                )
            text = render_prometheus_multi(sections)
            return 200, Raw(text.encode(), _PROM_CONTENT_TYPE), None
        payload = {
            "uptime_s": uptime,
            "router": {
                "shards": self.n,
                "metrics": self.metrics.snapshot(),
                "shard_status": self._shard_status(),
            },
            "shards": {
                str(i): page for i, page in enumerate(pages) if page is not None
            },
        }
        return self._reply(200, payload, path, trace_id)


async def run_sharded_service(config: ServiceConfig, shards: int | None = None):
    """Run a router + N shards until SIGINT/SIGTERM, then drain and stop."""
    await serve_until_signalled(
        ShardRouter(config, shards),
        lambda r: print(
            f"repro.service router listening on "
            f"http://{r.config.host}:{r.port} ({r.n} shards)"
        ),
    )
