"""Measurement helpers: percentiles, open-loop timing, process-group
accounting, host speed and the unattributed remainder.

Standard library and numpy only, so the tests of these helpers run
without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated (numpy's default)."""
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def supports_percentile(n: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    """True when ``n`` samples leave at least ``beyond`` of them above the ``q``-th percentile."""
    return n * (100.0 - q) >= beyond * 100.0 - 1e-9


def due_time_latency(due: float, sent: float, done: float) -> tuple[float, float]:
    """``(latency_ms, lateness_ms)`` of one open-loop operation.

    Latency runs from the time the operation was due, so a stall also
    charges the operations queued behind it; lateness is how far behind
    its schedule the generator itself issued the operation.
    """
    if not due <= sent <= done:
        raise ValueError("need due <= sent <= done")
    return (done - due) * 1e3, (sent - due) * 1e3


# -- process-group accounting ----------------------------------------------------


def _stat_fields(pid: int, proc: str) -> list[str]:
    with open(f"{proc}/{pid}/stat", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    # the command name is parenthesised and may itself hold spaces or parens
    return text[text.rindex(")") + 2 :].split()


def _group_stats(pgid: int, proc: str):
    """``(pid, stat fields)`` of each live (not zombie) process of process group ``pgid``."""
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry), proc)
        except OSError:
            continue  # exited while the table was read
        if int(fields[2]) == pgid and fields[0] != "Z":
            yield int(entry), fields


def group_members(pgid: int, proc: str = "/proc") -> list[int]:
    """Live (not zombie) processes of process group ``pgid``."""
    return [pid for pid, _ in _group_stats(pgid, proc)]


def group_cpu_s(pgid: int, proc: str = "/proc") -> float:
    """User plus system CPU seconds of the live processes of process group ``pgid``.

    A daemon started in its own session heads a group that holds its
    forkserver and the pool workers too, although those workers are the
    forkserver's children, not the daemon's.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    return sum(int(f[11]) + int(f[12]) for _, f in _group_stats(pgid, proc)) / ticks  # utime, stime


def peak_rss_mb(pid: int, proc: str = "/proc") -> float:
    """Peak resident memory (VmHWM) of one process, in MB."""
    with open(f"{proc}/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


# -- host speed -----------------------------------------------------------------

#: calibration units per second of the nominal host that timings are scaled to
NOMINAL_CALIBRATION = 1000.0


class HostSpeed:
    """The host's speed over a run, from a fixed workload timed in short slices.

    The workload (JSON round trips of fixed documents, sorts and sums of
    fixed arrays) belongs to the benchmark, so no change to the program
    moves it.  On a shared host the program's speed follows the host's,
    by tens of percent from one minute to the next; a timing scaled by
    :meth:`factor` reads as it would on a host that runs the workload at
    :data:`NOMINAL_CALIBRATION` units per second.
    """

    def __init__(self, slice_s: float = 0.04):
        rng = np.random.default_rng(12345)
        self._docs = [
            {
                "segments": [
                    {"core": int(c), "task": int(t), "start": float(a), "end": float(a + d),
                     "freq": float(f)}
                    for c, t, a, d, f in zip(
                        rng.integers(0, 4, 200), rng.integers(0, 20, 200),
                        rng.uniform(0, 200, 200), rng.uniform(0, 5, 200), rng.uniform(0.1, 2, 200),
                    )
                ],
                "energy": float(rng.uniform()),
            }
            for _ in range(16)
        ]
        self._arrays = [rng.uniform(size=(40, 80)) for _ in range(16)]
        self.slice_s = slice_s
        self.rates: list[float] = []
        self.spent_s = 0.0  # wall time spent calibrating, to leave out of timed phases

    def _unit(self, k: int) -> None:
        json.loads(json.dumps(self._docs[k % len(self._docs)]))
        np.sort(self._arrays[k % len(self._arrays)], axis=1).cumsum(axis=0).max()

    def sample(self) -> None:
        """Run the workload for one slice and record its rate (units per second)."""
        t0 = time.perf_counter()
        done, elapsed = 0, 0.0
        while elapsed < self.slice_s:
            self._unit(done)
            done += 1
            elapsed = time.perf_counter() - t0
        self.rates.append(done / elapsed)
        self.spent_s += elapsed

    def factor(self) -> float:
        """Mean calibration rate over the nominal one: below 1 on a slower host."""
        return statistics.fmean(self.rates) / NOMINAL_CALIBRATION


# -- stage attribution ----------------------------------------------------------


def unattributed_ms(end_to_end_p50: float, stage_p50s) -> float:
    """End-to-end p50 minus the sum of the per-stage self-time p50s."""
    return end_to_end_p50 - sum(stage_p50s)
