"""The process pool: one worker per socketpair, read by the event loop.

A submission goes loop → pipe → worker → pipe → loop as one
length-prefixed pickle each way, with no helper thread in the daemon.
These tests pin the framing (a reply split over many reads, a short frame
at EOF), a worker's exception surfacing at the caller, and a shutdown
that leaves no worker alive and no pipe open.
"""

import asyncio
import os
import pickle
import socket
import threading

import pytest

from repro.service.pool import (
    _HEADER,
    SolveDispatcher,
    WorkerCrash,
    _Worker,
    solve_schedule_batch,
)
from tests.conftest import decoded
from tests.service.test_faults import _large_job

_ROWS = [(0.0, 10.0, 6.0), (2.0, 14.0, 5.0), (4.0, 16.0, 7.0)]


def _job(extra: float = 0.0) -> dict:
    return {
        "tasks": [[r, d, c + extra, f"t{i}"] for i, (r, d, c) in enumerate(_ROWS)],
        "m": 2,
        "alpha": 3.0,
        "static": 0.1,
        "method": "der",
        "include_schedule": True,
    }


class _Recorder:
    """``on_idle`` / ``on_exit`` stand-ins that record their calls."""

    def __init__(self):
        self.idle: list = []
        self.exited: list = []


def _pipe_worker(loop, recorder: _Recorder) -> tuple[_Worker, socket.socket]:
    """A :class:`_Worker` over a socketpair whose far end the test plays."""
    near, far = socket.socketpair()
    worker = _Worker(near, None, loop, recorder.idle.append, recorder.exited.append)
    return worker, far


class TestFraming:
    def test_a_reply_split_over_many_reads_decodes_whole(self):
        reply = {"rows": list(range(20_000)), "tag": "x" * 5000}
        data = pickle.dumps(reply)
        frame = _HEADER.pack(len(data)) + data

        async def scenario():
            loop = asyncio.get_running_loop()
            recorder = _Recorder()
            worker, far = _pipe_worker(loop, recorder)
            try:
                fut = worker.call(b"request")
                assert far.recv(64) == b"request"
                for i in range(0, len(frame), 4096):
                    far.sendall(frame[i:i + 4096])
                    await asyncio.sleep(0.001)  # one read per piece
                    if i + 4096 < len(frame):
                        assert not fut.done()
                body = await asyncio.wait_for(fut, 5.0)
            finally:
                worker.close(RuntimeError("test over"))
                far.close()
            assert pickle.loads(body) == reply
            assert recorder.idle == [worker]
            assert recorder.exited == []

        asyncio.run(scenario())

    def test_a_truncated_frame_then_eof_is_a_crash_not_a_hang(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            recorder = _Recorder()
            worker, far = _pipe_worker(loop, recorder)
            fut = worker.call(b"request")
            far.sendall(_HEADER.pack(1000) + b"only ten b")
            await asyncio.sleep(0.01)
            assert not fut.done()
            far.close()
            with pytest.raises(WorkerCrash):
                await asyncio.wait_for(fut, 5.0)
            assert recorder.exited == [worker]
            assert recorder.idle == []
            assert worker.sock.fileno() == -1  # the pipe is closed

        asyncio.run(scenario())


class TestRealWorkers:
    def test_a_dispatch_adds_no_thread_to_the_daemon(self):
        dispatcher = SolveDispatcher(2)
        before = threading.active_count()
        try:

            async def scenario():
                # three submissions on two workers: one waits for a worker
                return await asyncio.gather(
                    *(dispatcher.solve_batch([_job(i)]) for i in range(3))
                )

            results = asyncio.run(scenario())
            assert threading.active_count() == before
        finally:
            dispatcher.shutdown()
        energies = [decoded(r[0])["energy"] for r in results]
        assert len(set(energies)) == 3 and all(e > 0 for e in energies)
        assert dispatcher.dispatch_count == 3

    def test_a_worker_exception_is_raised_at_the_caller(self):
        dispatcher = SolveDispatcher(1)
        try:

            async def scenario():
                await dispatcher.solve_batch([_job()])
                (worker,) = dispatcher._live
                with pytest.raises(KeyError, match="tasks"):
                    await dispatcher.solve_optimal({})
                result = await dispatcher.solve_batch([_job(1.0)])
                return worker, result

            worker, result = asyncio.run(scenario())
            # the same worker served the next dispatch: nothing restarted
            assert dispatcher._live == [worker]
            assert worker.process.is_alive()
        finally:
            dispatcher.shutdown()
        assert "error" not in result[0]
        assert dispatcher.metrics.counter("worker_restarts").value == 0
        assert dispatcher.metrics.counter("job_retries").value == 0

    def test_cancelled_submissions_neither_lose_nor_share_a_worker(self):
        """A cancelled in-flight submission keeps its worker busy until its
        reply lands; a cancelled waiter is skipped; the next submission
        gets the worker then, and its own reply."""
        dispatcher = SolveDispatcher(1)
        try:

            async def scenario():
                running = asyncio.ensure_future(
                    dispatcher.solve_batch([_large_job(1000, seed=2)])
                )
                while not dispatcher._live or dispatcher._live[0]._reply is None:
                    await asyncio.sleep(0.005)
                waiting = asyncio.ensure_future(dispatcher.solve_batch([_job(2.0)]))
                await asyncio.sleep(0.01)
                running.cancel()
                waiting.cancel()
                return await dispatcher.solve_batch([_job(1.0)])

            result = asyncio.run(scenario())
        finally:
            dispatcher.shutdown()
        expected = solve_schedule_batch([_job(1.0)])
        assert result[0]["encoded"] == expected[0]["encoded"]
        assert dispatcher.dispatch_count == 2
        assert dispatcher.metrics.counter("worker_restarts").value == 0

    def test_shutdown_leaves_no_worker_alive_and_no_pipe_open(self):
        dispatcher = SolveDispatcher(2)

        async def scenario():
            await asyncio.gather(
                dispatcher.solve_batch([_job()]), dispatcher.solve_batch([_job(1.0)])
            )
            return list(dispatcher._live)

        workers = asyncio.run(scenario())
        assert len(workers) == 2
        pids = [w.process.pid for w in workers]
        dispatcher.shutdown()
        for worker, pid in zip(workers, pids):
            assert worker.sock.fileno() == -1
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # exited and reaped
        with pytest.raises(RuntimeError, match="shut down"):
            asyncio.run(dispatcher.solve_batch([_job()]))

    def test_close_joins_off_the_running_loop(self):
        dispatcher = SolveDispatcher(1)

        async def scenario():
            await dispatcher.solve_batch([_job()])
            (worker,) = dispatcher._live
            pid = worker.process.pid
            await dispatcher.close()
            return worker, pid

        worker, pid = asyncio.run(scenario())
        assert worker.sock.fileno() == -1
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
