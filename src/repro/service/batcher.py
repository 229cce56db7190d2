"""Micro-batching: coalesce requests only while every worker is busy.

A :class:`MicroBatcher` sits in front of an async ``dispatch`` callable
that must return one result per job, in order.  It has ``slots``
dispatches in flight at most (the daemon passes its pool's worker
count).  :meth:`~MicroBatcher.submit` queues a job and returns the
future of its result; each free slot takes its share of the queue —
``ceil(queued / slots)`` jobs, at most ``max_batch`` — as one dispatch,
in submit order, run in a task of its own.  So a job that finds a slot
free dispatches at once, alone, with no timer, and a backlog spreads
over every slot instead of landing on the first to free.

So a lightly loaded daemon never waits, and per-dispatch costs (pickling
the job list and its results, one write and the reads of the reply on the
worker's pipe, the fused solver pass in :mod:`~repro.service.pool`) are
shared only when requests are already waiting behind busy workers.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Awaitable, Callable, Sequence

__all__ = ["MicroBatcher"]

Dispatch = Callable[[Sequence[Any]], Awaitable[Sequence[Any]]]


class MicroBatcher:
    """Worker-slot batching in front of an async dispatch function.

    Parameters
    ----------
    dispatch:
        ``async (jobs) -> results`` with ``len(results) == len(jobs)``.
        An exception from ``dispatch`` is set on every job future of the
        batch.
    slots:
        Dispatches allowed in flight at once.
    max_batch:
        Most queued jobs handed to one dispatch.
    """

    def __init__(self, dispatch: Dispatch, *, slots: int = 1, max_batch: int = 32):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._dispatch = dispatch
        self.slots = slots
        self.max_batch = max_batch
        self._busy = 0
        self._queue: deque[tuple[Any, asyncio.Future]] = deque()
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        # accounting for /metrics
        self.batches = 0
        self.jobs = 0
        self.largest_batch = 0

    @property
    def pending(self) -> int:
        """Jobs queued behind busy slots."""
        return len(self._queue)

    def submit(self, job: Any) -> asyncio.Future:
        """Queue one job (dispatched at once if a slot is free) and return
        the future of its result."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append((job, fut))
        self._start()
        return fut

    def _start(self) -> None:
        """Give each free slot its share of the queue (every queued job once
        closed, so :meth:`close` drains without waiting for slots)."""
        while self._queue and (self._busy < self.slots or self._closed):
            n = min(-(-len(self._queue) // self.slots), self.max_batch)
            batch = [self._queue.popleft() for _ in range(n)]
            self._busy += 1
            task = asyncio.get_running_loop().create_task(self._run(batch))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run(self, batch: list[tuple[Any, asyncio.Future]]) -> None:
        """Dispatch one batch on the slot :meth:`_start` took for it, hand
        the slot on, then settle the batch's futures."""
        jobs = [job for job, _ in batch]
        self.batches += 1
        self.jobs += len(jobs)
        self.largest_batch = max(self.largest_batch, len(jobs))
        try:
            try:
                results = await self._dispatch(jobs)
            finally:
                self._busy -= 1
                self._start()
            if len(results) != len(jobs):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for {len(jobs)} jobs"
                )
        except BaseException as exc:  # forwarded to every waiter
            for _, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            return
        for (_, fut), result in zip(batch, results):
            if not fut.done():
                fut.set_result(result)

    async def close(self) -> None:
        """Refuse further submissions, dispatch every queued job, and wait
        for every dispatch to finish."""
        self._closed = True
        self._start()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
