"""The scale-out tier: consistent-hash ring, platform keys, shard router.

Pure-logic tests (HashRing, platform_key, shard_config) run everywhere;
the router end-to-end tests spawn real shard processes and are kept to
two small deployments to stay cheap.  The sharding contract:

* ``HashRing`` is deterministic across processes (SHA-256, not
  ``hash()``) and removing a node only reassigns that node's keys,
* ``platform_key`` normalizes spelling (``3`` vs ``3.0``) and fills
  config defaults, so equivalent platforms land on one shard,
* ``/admit`` traffic for one platform always reaches the same shard,
  and a killed shard is respawned with its session replayed — the
  stream continues as if nothing happened,
* a sharded deployment is observationally identical to the
  single-process engine (bit-equal admit responses and plan snapshots).
"""

import asyncio
import json
import os
import signal

import pytest

from repro.service import SchedulingService, ServiceConfig, ShardRouter
from repro.service.http11 import HttpClient, request_once
from repro.service.shard import HashRing, platform_key, shard_config

_BASE = dict(port=0, workers=0, log_interval=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


class TestHashRing:
    def test_deterministic_lookup(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        keys = [f"key-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_covers_all_nodes(self):
        ring = HashRing(range(4))
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_remove_only_moves_the_removed_nodes_keys(self):
        ring = HashRing(range(4))
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(2)
        for k in keys:
            after = ring.lookup(k)
            if before[k] != 2:
                assert after == before[k]
            else:
                assert after != 2

    def test_readding_restores_the_original_assignment(self):
        ring = HashRing(range(4))
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(1)
        ring.add(1)
        assert {k: ring.lookup(k) for k in keys} == before

    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(LookupError):
            HashRing().lookup("anything")


class TestPlatformKey:
    def test_numeric_spelling_is_normalized(self):
        config = _config()
        assert (platform_key({"m": 3, "f_max": 2}, config)
                == platform_key({"m": 3.0, "f_max": 2.0}, config))

    def test_defaults_fill_missing_fields(self):
        config = _config(m=4, f_max=2.0)
        assert (platform_key({}, config)
                == platform_key({"m": 4, "f_max": 2.0}, config))

    def test_distinct_platforms_get_distinct_keys(self):
        config = _config()
        keys = {
            platform_key(body, config)
            for body in ({}, {"f_max": 2.0}, {"m": 2}, {"static": 0.05},
                         {"alpha": 2.0})
        }
        assert len(keys) == 5

    def test_key_order_is_irrelevant(self):
        config = _config()
        assert (platform_key({"m": 2, "f_max": 2.0}, config)
                == platform_key({"f_max": 2.0, "m": 2}, config))


class TestShardConfig:
    def test_derived_config_is_a_private_listener(self):
        base = _config(host="0.0.0.0", port=8080, shards=4,
                       trace_path="/tmp/t.jsonl")
        derived = shard_config(base, 2)
        assert derived.host == "127.0.0.1"
        assert derived.port == 0
        assert derived.shards == 0  # a shard never re-shards
        assert derived.shard_id == 2
        assert derived.trace_path == "/tmp/t.jsonl.shard2"
        assert base.shard_id is None  # base untouched


class TestIdlePool:
    def test_closing_the_pool_spares_a_connection_returned_meanwhile(self):
        # a respawn closes the dead shard's idle connections while other
        # forwards keep returning theirs: those belong to the new pool
        router = ShardRouter(_config(), shards=1)
        closed = []

        class Conn:
            def __init__(self, name):
                self.name = name

            async def close(self):
                await asyncio.sleep(0)
                closed.append(self.name)

        async def forward_returns(conn):
            await asyncio.sleep(0)
            router._idle[0].append(conn)

        async def main():
            router._idle[0] = [Conn("a"), Conn("b")]
            await asyncio.gather(router._close_idle(0), forward_returns(Conn("new")))

        asyncio.run(main())
        assert closed == ["a", "b"]
        assert [c.name for c in router._idle[0]] == ["new"]


def _admit_stream(n: int, seed: int) -> list[list[float]]:
    import numpy as np

    rng = np.random.default_rng(seed)
    releases = np.cumsum(rng.exponential(1.0, size=n))
    works = rng.uniform(5.0, 15.0, size=n)
    return [[float(r), float(r + w * 1.5), float(w)]
            for r, w in zip(releases, works)]


class TestRouterEndToEnd:
    def test_affinity_replay_and_single_process_equivalence(self):
        """One boot, three assertions: every /admit for a platform lands on
        one shard; killing that shard mid-stream is invisible to the
        client; the full stream matches a bare SchedulingService."""
        platforms = ({"f_max": 2.0}, {"f_max": 3.0, "m": 2})
        streams = {i: _admit_stream(8, 11 + i) for i in range(len(platforms))}

        async def scenario():
            sharded: dict[int, list[str]] = {0: [], 1: []}
            owner_shards: dict[int, set] = {0: set(), 1: set()}
            async with ShardRouter(_config(), shards=2) as router:
                client = HttpClient("127.0.0.1", router.port)
                await client.connect()
                try:
                    for i, platform in enumerate(platforms):
                        await client.request(
                            "POST", "/admit", {"reset": True, **platform}
                        )
                    # first half of each stream, interleaved
                    for step in range(4):
                        for i, platform in enumerate(platforms):
                            status, body = await client.request(
                                "POST", "/v1/admit",
                                {"task": streams[i][step], **platform},
                            )
                            assert status == 200
                            owner_shards[i].add(body["meta"]["shard"])
                            sharded[i].append(
                                json.dumps(body["result"], sort_keys=True)
                            )
                    # consistent hashing: one owner per platform so far
                    assert all(len(s) == 1 for s in owner_shards.values())

                    # SIGKILL platform 0's owning shard mid-stream
                    victim = next(iter(owner_shards[0]))
                    pid = router.manager.get(victim).process.pid
                    os.kill(pid, signal.SIGKILL)
                    await asyncio.sleep(0.1)

                    for step in range(4, 8):
                        for i, platform in enumerate(platforms):
                            status, body = await client.request(
                                "POST", "/v1/admit",
                                {"task": streams[i][step], **platform},
                            )
                            assert status == 200, body
                            owner_shards[i].add(body["meta"]["shard"])
                            sharded[i].append(
                                json.dumps(body["result"], sort_keys=True)
                            )
                    # the respawned shard rejoins at the same ring position
                    assert all(len(s) == 1 for s in owner_shards.values())
                    assert router.manager.get(victim).restarts >= 1

                    peeks = []
                    for platform in platforms:
                        _, body = await client.request(
                            "POST", "/v1/admit", {"peek": True, **platform}
                        )
                        peeks.append(
                            json.dumps(body["result"], sort_keys=True)
                        )
                finally:
                    await client.close()

            # replay the identical streams against the bare engine
            single: dict[int, list[str]] = {0: [], 1: []}
            async with SchedulingService(_config()) as service:
                client = HttpClient("127.0.0.1", service.port)
                await client.connect()
                try:
                    for platform in platforms:
                        await client.request(
                            "POST", "/admit", {"reset": True, **platform}
                        )
                    for step in range(8):
                        for i, platform in enumerate(platforms):
                            _, body = await client.request(
                                "POST", "/v1/admit",
                                {"task": streams[i][step], **platform},
                            )
                            single[i].append(
                                json.dumps(body["result"], sort_keys=True)
                            )
                    single_peeks = []
                    for platform in platforms:
                        _, body = await client.request(
                            "POST", "/v1/admit", {"peek": True, **platform}
                        )
                        single_peeks.append(
                            json.dumps(body["result"], sort_keys=True)
                        )
                finally:
                    await client.close()

            # bit-equal: every per-event ack and the final plan snapshots,
            # despite the SIGKILL + replay in the sharded run
            assert sharded == single
            assert peeks == single_peeks

        asyncio.run(scenario())

    def test_stateless_routes_balance_and_metrics_merge(self):
        async def scenario():
            async with ShardRouter(_config(), shards=2) as router:
                client = HttpClient("127.0.0.1", router.port)
                await client.connect()
                try:
                    shards_seen = set()
                    for i in range(6):
                        status, body = await client.request(
                            "POST", "/v1/schedule",
                            {"tasks": [[0.0, 10.0, 2.0 + i]],
                             "include_schedule": False},
                        )
                        assert status == 200
                        shards_seen.add(body["meta"]["shard"])
                finally:
                    await client.close()
                # sequential keep-alive traffic: zero outstanding at each
                # pick, so round-robin tie-break spreads over both shards
                assert shards_seen == {0, 1}

                status, body = await request_once(
                    "127.0.0.1", router.port, "GET", "/v1/metrics"
                )
                assert status == 200
                result = body["result"]
                assert set(result["shards"]) == {"0", "1"}
                per_shard = [
                    result["shards"][s]["metrics"]["counters"].get(
                        "requests_total:/v1/schedule", 0
                    )
                    for s in ("0", "1")
                ]
                assert sum(per_shard) == 6
                assert all(c > 0 for c in per_shard)
                assert result["router"]["shards"] == 2
                status_rows = result["router"]["shard_status"]
                assert [r["alive"] for r in status_rows] == [True, True]

                status, body = await request_once(
                    "127.0.0.1", router.port, "GET", "/v1/healthz"
                )
                assert status == 200
                assert body["result"]["status"] == "ok"
                assert [s["alive"] for s in body["result"]["shards"]] == [
                    True, True
                ]

        asyncio.run(scenario())

    def test_one_death_seen_by_two_requests_replays_once(self):
        """An admit and a schedule both hit the killed shard: it is
        respawned and its journal replayed once, not once per request."""
        stream = _admit_stream(6, 5)

        async def scenario():
            async with ShardRouter(_config(), shards=1) as router:
                admit = HttpClient("127.0.0.1", router.port)
                schedule = HttpClient("127.0.0.1", router.port)
                try:
                    await admit.request("POST", "/v1/admit", {"reset": True})
                    for task in stream[:5]:
                        status, body = await admit.request(
                            "POST", "/v1/admit", {"task": task}
                        )
                        assert status == 200 and body["result"]["accepted"]
                    os.kill(router.manager.get(0).process.pid, signal.SIGKILL)
                    await asyncio.sleep(0.1)
                    (a_status, a_body), (s_status, _) = await asyncio.gather(
                        admit.request("POST", "/v1/admit", {"task": stream[5]}),
                        schedule.request(
                            "POST", "/v1/schedule",
                            {"tasks": [[0.0, 10.0, 2.0]],
                             "include_schedule": False},
                        ),
                    )
                    assert a_status == 200 and s_status == 200
                    assert a_body["result"]["committed"] == 6
                    _, peek = await admit.request(
                        "POST", "/v1/admit", {"peek": True}
                    )
                    assert peek["result"]["committed"] == 6
                finally:
                    await admit.close()
                    await schedule.close()
                counters = router.metrics.snapshot()["counters"]
                assert counters["admit_replays_total"] == 5
                assert counters["shard_respawns_total"] == 1

        asyncio.run(scenario())


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
