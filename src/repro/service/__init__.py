"""repro.service — an asyncio scheduling daemon over the batch pipeline.

The batch CLI solves one task file and exits; this package is the
long-running serving layer the ROADMAP's production story needs.  It is
stdlib-only (asyncio + the repro pipeline) and exposes an HTTP/JSON API:

``POST /schedule``   plan a task set (S^F1/S^F2/online) — micro-batched
``POST /admit``      f_max admission control (stateful, §VI-C/D extension)
``POST /optimal``    exact convex optimum
``GET  /metrics``    counters, gauges, latency percentiles, cache stats
``GET  /healthz``    liveness + uptime

Architecture
------------

* :mod:`~repro.service.batcher` dispatches a ``/schedule`` miss at once
  while a pool worker is free, and coalesces only the misses that queue
  behind busy workers into one pool submission, so the event loop never
  blocks on a solve and, under backlog, IPC overhead is amortized.
* :mod:`~repro.service.cache` is an LRU keyed by a canonical hash of
  (task set, m, power, method); permuted task orders hit the same entry,
  and a warm hit never enters the process pool.
* :mod:`~repro.service.http11` is the one HTTP/1.1 layer — head
  parsing, encoders, the keep-alive connection loop and the client —
  under the daemon, the router and the load generator alike.
* :mod:`~repro.service.pool` runs the solver workers, each a process
  behind its own socketpair that the event loop reads itself, and
  supervises them one by one: a dead worker fails only the batch it was
  running, is replaced, and that batch is re-dispatched (at most once,
  jittered exponential backoff) before its jobs are abandoned with an
  error.
* :mod:`~repro.service.faults` is the seeded chaos harness — worker
  kills, response delays/drops, malformed payloads — behind the
  ``faults=`` config knob / ``repro serve --chaos`` / ``repro loadgen
  --chaos`` (see ``docs/robustness.md``).
* :mod:`~repro.service.loadgen` is the async benchmarking client.
* :mod:`~repro.service.shard` + :mod:`~repro.service.router` are the
  scale-out tier (``repro serve --shards N``): a front router owning the
  listen socket over N shard processes — stateless routes balanced by
  least-outstanding, ``/admit`` placed by consistent hash of the platform
  signature, shard death absorbed by respawn + admit-journal replay.

Metrics live in :mod:`repro.obs.metrics` (one registry per process,
rendered at ``/metrics`` and in a periodic log line).

Every endpoint is served both under the versioned ``/v1`` prefix (with
the ``{"result", "meta"}`` response envelope and the unified error
schema) and at the bare legacy path (deprecated shim; see ``docs/api.md``).
"""

from ..obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from .batcher import MicroBatcher
from .cache import PlanCache
from .config import RetryPolicy, ServiceConfig
from .faults import FaultInjector, FaultSpec
from .protocol import (
    API_VERSION,
    AdmitRequest,
    OptimalRequest,
    ProtocolError,
    ScheduleRequest,
    canonical_plan_key,
    canonicalize_tasks,
    error_body,
    flatten_legacy_error,
    v1_envelope,
)
from .router import ShardRouter, run_sharded_service
from .server import SchedulingService, run_service
from .shard import HashRing, ShardManager, platform_key

__all__ = [
    "API_VERSION",
    "AdmitRequest",
    "Counter",
    "FaultInjector",
    "FaultSpec",
    "Gauge",
    "HashRing",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "OptimalRequest",
    "PlanCache",
    "ProtocolError",
    "RetryPolicy",
    "ScheduleRequest",
    "SchedulingService",
    "ServiceConfig",
    "ShardManager",
    "ShardRouter",
    "canonical_plan_key",
    "canonicalize_tasks",
    "error_body",
    "flatten_legacy_error",
    "platform_key",
    "run_service",
    "run_sharded_service",
    "v1_envelope",
]
