"""Unit tests for the micro-batcher's worker-slot rule."""

import asyncio

import pytest

from repro.service.batcher import MicroBatcher


class Recorder:
    """Dispatch stub that records every batch and holds it until released."""

    def __init__(self, hold: bool = False):
        self.batches: list[list] = []
        self.running = 0
        self.release = asyncio.Event()
        if not hold:
            self.release.set()

    async def __call__(self, jobs):
        self.batches.append(list(jobs))
        self.running += 1
        try:
            await self.release.wait()
        finally:
            self.running -= 1
        return [f"r:{job}" for job in jobs]


async def _settle():
    """Let every ready task run until it blocks."""
    for _ in range(5):
        await asyncio.sleep(0)


def test_idle_slot_dispatches_without_waiting():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=1, max_batch=100)
        waiter = asyncio.ensure_future(b.submit("x"))
        await _settle()
        # dispatched before any result came back: no window, no queue
        assert rec.batches == [["x"]]
        assert b.pending == 0
        rec.release.set()
        assert await waiter == "r:x"
        assert await b.submit("y") == "r:y"
        assert rec.batches == [["x"], ["y"]]

    asyncio.run(run())


def test_busy_slots_coalesce_later_submits_in_order():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=1, max_batch=100)
        waiters = [asyncio.ensure_future(b.submit(job)) for job in "abcd"]
        await _settle()
        assert rec.batches == [["a"]]  # the slot is busy with "a"
        assert b.pending == 3
        rec.release.set()
        assert await asyncio.gather(*waiters) == ["r:a", "r:b", "r:c", "r:d"]
        assert rec.batches == [["a"], ["b", "c", "d"]]  # one dispatch, order kept
        assert (b.batches, b.jobs, b.largest_batch, b.pending) == (2, 4, 3, 0)

    asyncio.run(run())


def test_overflow_starts_a_new_batch():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=1, max_batch=2)
        waiters = [asyncio.ensure_future(b.submit(i)) for i in range(6)]
        await _settle()
        rec.release.set()
        assert await asyncio.gather(*waiters) == [f"r:{i}" for i in range(6)]
        assert rec.batches == [[0], [1, 2], [3, 4], [5]]

    asyncio.run(run())


def test_single_request_fast_path_max_batch_one():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=1, max_batch=1)
        waiters = [asyncio.ensure_future(b.submit(i)) for i in range(3)]
        await _settle()
        rec.release.set()
        assert await asyncio.gather(*waiters) == ["r:0", "r:1", "r:2"]
        # a backlog still dispatches one request at a time: never coalesced
        assert rec.batches == [[0], [1], [2]]

    asyncio.run(run())


def test_two_slots_run_two_single_job_dispatches_at_once():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=2, max_batch=100)
        waiters = [asyncio.ensure_future(b.submit(job)) for job in "ab"]
        await _settle()
        assert rec.batches == [["a"], ["b"]]
        assert rec.running == 2
        rec.release.set()
        assert await asyncio.gather(*waiters) == ["r:a", "r:b"]

    asyncio.run(run())


def test_freed_slot_takes_its_share_of_the_backlog():
    async def run():
        batches: list[list] = []
        gates: dict[str, asyncio.Event] = {}

        async def dispatch(jobs):  # each batch waits for its own release
            batches.append(list(jobs))
            gates[jobs[0]] = asyncio.Event()
            await gates[jobs[0]].wait()
            return [f"r:{job}" for job in jobs]

        b = MicroBatcher(dispatch, slots=2, max_batch=100)
        waiters = [asyncio.ensure_future(b.submit(job)) for job in "abcdefg"]
        await _settle()
        assert batches == [["a"], ["b"]] and b.pending == 5
        gates["a"].set()
        await _settle()
        # ceil(5 / 2) queued jobs; the rest stay for the other slot
        assert batches[2:] == [["c", "d", "e"]] and b.pending == 2
        gates["b"].set()
        await _settle()
        assert batches[3:] == [["f"]] and b.pending == 1
        gates["c"].set()
        await _settle()
        assert batches[4:] == [["g"]] and b.pending == 0
        gates["f"].set()
        gates["g"].set()
        assert await asyncio.gather(*waiters) == [f"r:{job}" for job in "abcdefg"]

    asyncio.run(run())


def test_dispatch_error_propagates_to_every_waiter():
    async def run():
        gate = asyncio.Event()

        async def boom(jobs):
            await gate.wait()
            raise RuntimeError("solver crashed")

        b = MicroBatcher(boom, slots=1, max_batch=10)
        # the first job takes the slot; the other two fail as one batch
        waiters = [asyncio.ensure_future(b.submit(i)) for i in range(3)]
        await _settle()
        gate.set()
        results = await asyncio.gather(*waiters, return_exceptions=True)
        assert all(isinstance(r, RuntimeError) for r in results)
        assert b.batches == 2

    asyncio.run(run())


def test_result_count_mismatch_is_an_error():
    async def run():
        gate = asyncio.Event()

        async def short(jobs):
            await gate.wait()
            return jobs[:-1]  # one result short

        b = MicroBatcher(short, slots=1, max_batch=10)
        waiters = [asyncio.ensure_future(b.submit(i)) for i in range(3)]
        await _settle()
        gate.set()
        results = await asyncio.gather(*waiters, return_exceptions=True)
        assert all(isinstance(r, RuntimeError) for r in results)
        assert "results for" in str(results[0])

    asyncio.run(run())


def test_close_drains_queued_jobs():
    async def run():
        rec = Recorder(hold=True)
        b = MicroBatcher(rec, slots=1, max_batch=100)
        first = asyncio.ensure_future(b.submit("a"))
        queued = [asyncio.ensure_future(b.submit(job)) for job in "bc"]
        await _settle()
        assert b.pending == 2
        closing = asyncio.ensure_future(b.close())
        await _settle()
        assert b.pending == 0  # dispatched without waiting for the slot
        rec.release.set()
        await closing
        assert await first == "r:a"
        assert await asyncio.gather(*queued) == ["r:b", "r:c"]
        assert rec.batches == [["a"], ["b", "c"]]

    asyncio.run(run())


def test_closed_batcher_refuses_submits():
    async def run():
        b = MicroBatcher(Recorder(), slots=1, max_batch=4)
        await b.close()
        with pytest.raises(RuntimeError, match="closed"):
            await b.submit("x")

    asyncio.run(run())


def test_constructor_validation():
    rec = Recorder()
    with pytest.raises(ValueError, match="slots"):
        MicroBatcher(rec, slots=0)
    with pytest.raises(ValueError, match="max_batch"):
        MicroBatcher(rec, max_batch=0)
