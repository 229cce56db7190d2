"""Service configuration: frozen dataclasses shared by server, CLI, tests."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for re-dispatching crashed work.

    Attempt ``k`` (1-based retry number) sleeps
    ``min(cap, base · 2^(k-1)) · U`` where ``U ~ uniform(0.5, 1.0)`` from
    the caller's seeded RNG — the jitter keeps simultaneous retries from
    hammering a freshly-respawned pool in lockstep, the seed keeps chaos
    runs replayable.
    """

    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered via ``rng``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        exp = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        return exp * rng.uniform(0.5, 1.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the scheduling daemon.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port (tests/smoke).
    workers:
        Solver worker processes.  ``0`` solves inline in a thread executor
        (no process pool) — the fast mode for tests and smoke checks; the
        batching/caching/shedding behavior is identical.  It is also the
        micro-batcher's slot count (at least 1): requests dispatch at once
        while fewer than that many dispatches are in flight.
    batch_max:
        Cap on the requests that queued behind busy workers and go to the
        next free worker as one dispatch (it takes its share of the
        queue, ``ceil(queued / slots)``).  ``1`` never coalesces.
    cache_size:
        LRU plan-cache capacity (entries).  ``0`` disables caching.
    max_inflight:
        Bound on concurrently-accepted requests.  Beyond it the server
        sheds with 429 instead of queueing unboundedly.
    request_timeout:
        Per-request deadline in seconds; exceeded requests get 504.
    m, alpha, static, f_max:
        Platform defaults: core count and power model ``p(f)=f^α+p₀``
        used when a request omits them, and the admission controller's
        configuration (``f_max=None`` disables the cap).
    log_interval:
        Seconds between periodic one-line metric logs (``0`` disables).
    solver_timeout:
        Wall-time bound (seconds) for exact ``optimal:*`` solves.  A solve
        that outlives it degrades to :attr:`degrade_to` instead of hanging
        the request; ``0`` disables the bound.
    degrade_to:
        Registry solver that replaces a hung/crashed exact solve
        (``""`` disables degradation — timeouts then surface as errors).
    retry_max:
        Re-dispatches of in-flight work after a worker death (at most —
        a retried dispatch that crashes again is abandoned with a per-job
        error, never retried unboundedly).
    retry_backoff, retry_backoff_cap:
        Base and ceiling (seconds) of the jittered exponential backoff
        slept before each re-dispatch (:class:`RetryPolicy`).
    faults:
        Chaos spec string (:meth:`repro.service.faults.FaultSpec.parse`),
        e.g. ``"kill=0.05,delay=0.1:0.02,drop=0.02,seed=7"``.  Empty
        disables fault injection (the production default).
    trace_path:
        JSONL span-export file (``repro serve --trace``).  Empty disables
        export; spans are still created (they feed the per-stage
        ``stage_ms:*`` histograms) but dropped instead of written.
    trace_sample:
        Fraction of traces exported, decided per trace id so span trees
        are never torn (:func:`repro.obs.context.trace_sampled`).
    shards:
        Worker shard processes behind a front router (``repro serve
        --shards N``).  ``0`` runs the classic single-process daemon;
        ``N >= 1`` boots a :class:`~repro.service.router.ShardRouter`
        owning ``host:port`` with N :class:`SchedulingService` shard
        processes behind it.
    shard_id:
        Identity of this process within a sharded deployment (stamped
        into the ``/v1`` response ``meta`` and the merged metrics labels).
        ``None`` outside sharded mode.
    """

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 0
    batch_max: int = 32
    cache_size: int = 256
    max_inflight: int = 256
    request_timeout: float = 30.0
    m: int = 4
    alpha: float = 3.0
    static: float = 0.0
    f_max: float | None = None
    log_interval: float = field(default=60.0)
    solver_timeout: float = 10.0
    degrade_to: str = "subinterval-der"
    retry_max: int = 1
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 1.0
    faults: str = ""
    trace_path: str = ""
    trace_sample: float = 1.0
    shards: int = 0
    shard_id: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = single process)")
        if self.shard_id is not None and self.shard_id < 0:
            raise ValueError("shard_id must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.f_max is not None and self.f_max <= 0:
            raise ValueError("f_max must be positive")
        if self.solver_timeout < 0:
            raise ValueError("solver_timeout must be >= 0 (0 disables)")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        # delegate retry validation (and fail at config time, not dispatch)
        self.retry_policy()
        # ditto for the chaos spec string
        from .faults import FaultSpec

        FaultSpec.parse(self.faults)

    def retry_policy(self) -> RetryPolicy:
        """The worker-supervision retry policy these knobs describe."""
        return RetryPolicy(
            max_retries=self.retry_max,
            backoff_base=self.retry_backoff,
            backoff_cap=self.retry_backoff_cap,
        )

    def fault_spec(self):
        """Parsed chaos spec (disabled when :attr:`faults` is empty)."""
        from .faults import FaultSpec

        return FaultSpec.parse(self.faults)

    def with_(self, **kwargs) -> "ServiceConfig":
        """A modified copy (convenience for tests)."""
        return replace(self, **kwargs)
