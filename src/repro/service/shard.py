"""Shard processes and placement for the scale-out serving tier.

A sharded deployment is one :class:`~repro.service.router.ShardRouter`
process owning the listen socket plus N *shard* processes, each a full
:class:`~repro.service.server.SchedulingService` (own ``SolveDispatcher``
pool, plan cache, metrics registry, admission sessions) bound to an
ephemeral localhost port.  This module owns everything below the router's
HTTP layer:

* :class:`HashRing` — consistent hashing with virtual nodes.  ``/admit``
  requests are placed by :func:`platform_key` (the normalized platform
  signature ``m/alpha/static/gamma/f_max``), so every admission session
  lives on exactly one shard and survives membership-neutral restarts at
  the same position.
* :func:`_shard_entry` — the picklable child-process main: build the
  service, report the bound port back over a pipe, serve until SIGTERM,
  then drain gracefully.
* :class:`ShardManager` — spawn/supervise/respawn, reusing the
  forkserver start method from :mod:`repro.service.pool` (plain ``fork``
  from the threaded router process is deadlock-prone; see
  :func:`repro.service.pool._pool_context`).

Placement is deterministic: the ring is seeded with shard ids (not
ports), SHA-256 hashed, so a respawned shard rejoins at exactly its old
position and every journaled session replays onto the same shard id.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import logging

from .config import ServiceConfig
from .pool import _pool_context

__all__ = ["HashRing", "platform_key", "ShardProcess", "ShardManager"]

log = logging.getLogger("repro.service.shard")

#: virtual nodes per shard — enough to spread a handful of platform keys
#: evenly without making ring construction measurable
_VNODES = 64


class HashRing:
    """Consistent hash ring over shard ids with virtual nodes.

    SHA-256 based, so lookups are identical across processes and runs
    (``hash()`` randomization would re-shuffle sessions every boot).
    """

    def __init__(self, nodes=(), vnodes: int = _VNODES):
        self.vnodes = int(vnodes)
        self._hashes: list[int] = []
        self._nodes: list[int] = []
        for node in nodes:
            self.add(int(node))

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big"
        )

    def add(self, node: int) -> None:
        for replica in range(self.vnodes):
            h = self._hash(f"shard-{node}#{replica}")
            i = bisect.bisect_left(self._hashes, h)
            self._hashes.insert(i, h)
            self._nodes.insert(i, node)

    def remove(self, node: int) -> None:
        keep = [(h, n) for h, n in zip(self._hashes, self._nodes) if n != node]
        self._hashes = [h for h, _ in keep]
        self._nodes = [n for _, n in keep]

    def lookup(self, key: str) -> int:
        """The shard id owning ``key`` (clockwise successor on the ring)."""
        if not self._nodes:
            raise LookupError("hash ring is empty")
        i = bisect.bisect_right(self._hashes, self._hash(key))
        return self._nodes[i % len(self._nodes)]


def _norm(value, default):
    """Normalize one platform field the way ``Platform.signature`` would."""
    if value is None:
        value = default
    if value is None:
        return "None"
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        # malformed field: the shard will answer 400 either way, the key
        # only has to be deterministic so the 400 comes from *one* shard
        return repr(value)


def platform_key(body, config: ServiceConfig) -> str:
    """The consistent-hash key of one ``/admit`` request body.

    Mirrors the per-platform session identity the server keys its
    admission pool on (``Platform.signature()``): core count and power
    model with the service defaults filled in, floats normalized through
    ``repr`` so ``3`` and ``3.0`` land on the same shard.
    """
    if not isinstance(body, dict):
        body = {}
    return (
        f"m={_norm(body.get('m'), config.m)}"
        f",alpha={_norm(body.get('alpha'), config.alpha)}"
        f",static={_norm(body.get('static'), config.static)}"
        f",gamma={_norm(body.get('gamma'), 1.0)}"
        f",f_max={_norm(body.get('f_max'), config.f_max)}"
    )


def shard_config(base: ServiceConfig, shard_id: int) -> ServiceConfig:
    """The per-shard service config derived from the router's config.

    Shards bind ephemeral localhost ports (the router owns the public
    address), carry their ``shard_id`` (stamped into ``/v1`` ``meta`` and
    the merged metrics), and write per-shard trace files so concurrent
    JSONL exports never interleave.
    """
    trace = f"{base.trace_path}.shard{shard_id}" if base.trace_path else ""
    return base.with_(
        host="127.0.0.1",
        port=0,
        shards=0,
        shard_id=shard_id,
        log_interval=0.0,
        trace_path=trace,
    )


def _shard_entry(config: ServiceConfig, conn) -> None:
    """Child-process main: serve one shard until SIGTERM, then drain."""
    from .server import SchedulingService, serve_until_signalled

    logging.basicConfig(
        level=logging.WARNING, format="%(asctime)s %(name)s %(message)s"
    )

    def report_port(service) -> None:
        conn.send(service.port)
        conn.close()

    async def main() -> None:
        await serve_until_signalled(SchedulingService(config), report_port)

    asyncio.run(main())


class ShardProcess:
    """One running shard: the child process plus its bound port."""

    def __init__(self, shard_id: int, process, port: int):
        self.shard_id = shard_id
        self.process = process
        self.port = port
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardManager:
    """Spawns and supervises the N shard processes behind a router."""

    #: seconds a freshly-spawned shard gets to report its bound port —
    #: generous because forkserver children import numpy/scipy on boot
    SPAWN_TIMEOUT = 60.0

    def __init__(self, base_config: ServiceConfig, shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.base_config = base_config
        self.n = int(shards)
        self._ctx = _pool_context()
        self.shards: list[ShardProcess | None] = [None] * self.n

    async def start(self) -> None:
        spawned = await asyncio.gather(
            *(self._spawn(i) for i in range(self.n))
        )
        for shard in spawned:
            self.shards[shard.shard_id] = shard

    async def _spawn(self, shard_id: int) -> ShardProcess:
        parent, child = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_entry,
            args=(shard_config(self.base_config, shard_id), child),
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child.close()
        loop = asyncio.get_running_loop()
        ready = await loop.run_in_executor(
            None, parent.poll, self.SPAWN_TIMEOUT
        )
        if not ready:
            proc.kill()
            raise RuntimeError(
                f"shard {shard_id} did not report a port within "
                f"{self.SPAWN_TIMEOUT:g}s"
            )
        port = parent.recv()
        parent.close()
        log.info("shard %d listening on 127.0.0.1:%d (pid %d)",
                 shard_id, port, proc.pid)
        return ShardProcess(shard_id, proc, port)

    def get(self, shard_id: int) -> ShardProcess:
        shard = self.shards[shard_id]
        if shard is None:
            raise RuntimeError(f"shard {shard_id} is not running")
        return shard

    async def respawn(self, shard_id: int) -> ShardProcess:
        """Replace a dead shard.

        The router calls this under the shard's lock, after checking that
        the shard is dead, so one death means one respawn.
        """
        current = self.shards[shard_id]
        restarts = (current.restarts + 1) if current is not None else 1
        if current is not None and current.process.exitcode is None:
            current.process.kill()
        log.warning("shard %d died; respawning (restart #%d)", shard_id, restarts)
        shard = await self._spawn(shard_id)
        shard.restarts = restarts
        self.shards[shard_id] = shard
        return shard

    async def stop(self) -> None:
        """SIGTERM every shard (graceful drain), then reap stragglers."""
        for shard in self.shards:
            if shard is not None and shard.alive:
                shard.process.terminate()
        loop = asyncio.get_running_loop()
        for shard in self.shards:
            if shard is None:
                continue
            await loop.run_in_executor(None, shard.process.join, 10.0)
            if shard.alive:  # pragma: no cover - drain should always finish
                shard.process.kill()
                await loop.run_in_executor(None, shard.process.join, 5.0)
