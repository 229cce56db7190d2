"""The daemon under test and the benchmark's own HTTP client.

The client is a minimal HTTP/1.1 keep-alive implementation kept here, not
imported from the program, so the measuring instrument stays the same
when the program's own client code changes.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from measure import group_members

HOST = "127.0.0.1"
#: worker processes of the daemon under test (the host has 2 cores)
WORKERS = 2
#: generous bound on anything that should take well under a second
_WAIT_S = 60.0


def trace_id(i: int) -> str:
    """The ``x-trace-id`` the client sends with request ``i``: the daemon adopts it."""
    return f"{i:032x}"


def encode_request(
    method: str, path: str, body: bytes = b"", headers: dict | None = None
) -> bytes:
    """One HTTP/1.1 request as wire bytes."""
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"{extra}\r\n"
    )
    return head.encode("latin-1") + body


class Conn:
    """One keep-alive connection; responses come back as raw bytes."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 24)
        return cls(reader, writer)

    async def send(self, request: bytes) -> tuple[int, bytes]:
        """Write one request and read its response: ``(status, body)``."""
        self._writer.write(request)
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def fetch(port: int, request: bytes) -> tuple[int, bytes]:
    """One request on a throwaway connection."""
    conn = await Conn.open(port)
    try:
        return await conn.send(request)
    finally:
        await conn.close()


@dataclass
class Op:
    """One timed operation as the client saw it (perf_counter seconds)."""

    index: int
    due: float  # when the operation was due
    sent: float  # when the generator issued it
    started: float  # when it went out on a connection
    done: float  # when its reply had been read
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


async def exchange(conn: Conn, index: int, request: bytes, due: float, sent: float) -> Op:
    started = time.perf_counter()
    try:
        status, body = await conn.send(request)
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        status, body = 0, b""  # transport error: counted as a failed operation
    return Op(index, due, sent, started, time.perf_counter(), status, body)


def run_async(coro):
    """Run a coroutine on a select()-based loop.

    ``select`` takes microsecond timeouts where ``epoll`` rounds up to whole
    milliseconds, so open-loop sends leave close to their due times.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


async def open_loop(
    conns: list[Conn], requests: list[bytes], offsets: list[float], first: int = 0
) -> list[Op]:
    """Send ``requests[first + k]`` at ``offsets[k]`` seconds from now, whatever the replies.

    A request whose time has come waits for a free connection if all of
    ``conns`` are busy; that wait counts in its latency (measured from
    the due time), not in the generator's lateness.
    """
    idle: asyncio.Queue[Conn] = asyncio.Queue()
    for conn in conns:
        idle.put_nowait(conn)

    async def one(i: int, due: float, sent: float) -> Op:
        conn = await idle.get()
        try:
            return await exchange(conn, i, requests[i], due, sent)
        finally:
            idle.put_nowait(conn)

    tasks = []
    t0 = time.perf_counter()
    for k, offset in enumerate(offsets):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(first + k, due, max(time.perf_counter(), due))))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    conns: list[Conn], requests: list[bytes], seconds: float, cycle: bool, start: int = 0
) -> list[Op]:
    """Keep every one of ``conns`` busy for ``seconds``, each sending its next request on reply.

    Requests are taken in order from index ``start``; with ``cycle=False``
    the loop also ends when they run out, so none is ever sent twice.
    """
    ops: list[Op] = []
    cursor = start
    deadline = time.perf_counter() + seconds

    async def worker(conn: Conn) -> None:
        nonlocal cursor
        while time.perf_counter() < deadline and (cycle or cursor < len(requests)):
            i = cursor
            cursor += 1
            now = time.perf_counter()
            ops.append(await exchange(conn, i, requests[i % len(requests)], now, now))

    await asyncio.gather(*(worker(conn) for conn in conns))
    return ops


async def on_conns(port: int, n: int, drive):
    """Await ``drive(conns)`` over ``n`` fresh keep-alive connections, then close them."""
    conns = [await Conn.open(port) for _ in range(n)]
    try:
        return await drive(conns)
    finally:
        for conn in conns:
            await conn.close()


class Daemon:
    """One ``repro serve`` process tree, started fresh and stopped by the benchmark.

    The daemon runs in its own session, so its forkserver and pool
    workers (children of the forkserver, not of the daemon) share its
    process group and are stopped with it.
    """

    def __init__(self, root: Path, workdir: Path, trace_file: Path | None = None):
        self.root = root
        self.workdir = workdir
        self.trace_file = trace_file
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    def command(self) -> list[str]:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(WORKERS)]
        if self.trace_file is not None:
            cmd += ["--trace", str(self.trace_file)]
        return cmd

    def start(self, warmup: list[bytes]) -> float:
        """Boot the daemon; returns the set-up time in seconds.

        Set-up ends when ``/v1/healthz`` answers and the ``warmup``
        requests, sent together, have been served by the pool.
        """
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONUNBUFFERED="1")
        tmp = self.workdir / "tmp"
        tmp.mkdir(exist_ok=True)
        if len(str(tmp)) < 60:  # forkserver socket paths must stay short
            env["TMPDIR"] = str(tmp)
        self._log = open(self.workdir / "daemon.log", "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command(),
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        self.port = self._read_port()
        run_async(self._ready(warmup))
        return time.perf_counter() - t0

    def _read_port(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout=_WAIT_S):
                raise RuntimeError("daemon did not report its port")
        finally:
            sel.close()
        line = self.proc.stdout.readline().decode()
        match = re.search(r":(\d+)\s*$", line)
        if match is None:
            raise RuntimeError(f"daemon failed to start: {self.log_tail()}")
        return int(match.group(1))

    async def _ready(self, warmup: list[bytes]) -> None:
        status, _ = await fetch(self.port, encode_request("GET", "/v1/healthz"))
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
        replies = await asyncio.gather(*(fetch(self.port, req) for req in warmup))
        bad = [status for status, _ in replies if status != 200]
        if bad:
            raise RuntimeError(f"warm-up requests answered {bad}")

    def log_tail(self, lines: int = 20) -> str:
        path = self.workdir / "daemon.log"
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """Graceful SIGTERM, then SIGKILL for anything of the group still alive."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _kill_group(pgid)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


def _die_with_parent() -> None:
    """In the forked child: get SIGKILL when the benchmark dies, even by SIGKILL.

    Its forkserver and pool workers then exit on their own when their
    pipes to the daemon close.
    """
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of its members is left."""
    deadline = time.monotonic() + _WAIT_S
    while group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pgid} did not exit")
        time.sleep(0.01)
