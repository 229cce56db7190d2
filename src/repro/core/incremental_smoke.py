"""Smoke check: the incremental session vs. the batch oracle, at speed.

Run as ``python -m repro.core.incremental_smoke`` (the
``make incremental-smoke`` target).  Replays a seeded 500-event stream of
arrivals, completions, and clock advances through a
:class:`~repro.core.incremental.ScheduleSession` per allocation policy.
After every event the session's plan is bit-compared against a fresh
batch :class:`~repro.core.scheduler.SubintervalScheduler` — boundaries,
coverage, the allocation matrix, and the final energy must all be exactly
equal, not merely close.  The accumulated delta wall time must also beat
the accumulated rebuild wall time by the soft speedup gate (3x; the
typical margin is far larger — the gate only catches gross regressions).
Exit code 0 means every comparison held and the gate passed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ..power import PolynomialPower
from ..smoke import Smoke, main
from .allocation import METHODS
from .incremental import ScheduleSession
from .scheduler import SubintervalScheduler
from .task import Task

_EVENTS = 500
# the delta advantage scales with the live-pool size; below ~50 tasks the
# per-delta refresh overhead eats most of the win, so keep the pool large
# enough that the speedup gate measures the splice, not the fixed costs
_MAX_LIVE = 80
_SPEEDUP_GATE = 3.0


def _stream(seed: int):
    """Yield ``('add', Task) | ('done',) | ('advance', t)`` events."""
    rng = np.random.default_rng(seed)
    clock = 0.0
    for _ in range(_EVENTS):
        u = rng.random()
        if u < 0.7:
            clock += float(rng.exponential(0.5))
            window = float(rng.uniform(20.0, 60.0))
            work = float(rng.uniform(1.0, 10.0))
            yield "add", Task(clock, clock + window, work), clock
        elif u < 0.9:
            yield "done", None, clock
        else:
            yield "advance", None, clock


def _check_method(smoke: Smoke, method: str, seed: int) -> None:
    power = PolynomialPower(alpha=3.0, static=0.1)
    m = 4
    session = ScheduleSession(m, power, method=method)
    rng = np.random.default_rng(seed + 1)
    live: list[int] = []
    delta_s = 0.0
    rebuild_s = 0.0
    n_max = 0
    for kind, task, clock in _stream(seed):
        if kind == "add":
            if len(live) >= _MAX_LIVE:
                session.complete_task(live.pop(0))
            live.append(session.add_task(task))
            delta_s += session.last_delta.wall_s
        elif kind == "done":
            if not live:
                continue
            session.complete_task(live.pop(rng.integers(len(live))))
            delta_s += session.last_delta.wall_s
        else:
            # retire anything whose deadline the clock has passed, then
            # re-anchor the remaining releases at the current instant
            for h in [h for h in live if session.task_of(h).deadline <= clock + 0.5]:
                live.remove(h)
                session.complete_task(h)
                delta_s += session.last_delta.wall_s
            if not live:
                continue
            session.advance_to(clock)
            delta_s += session.last_delta.wall_s
        if session.is_empty:
            continue
        n_max = max(n_max, len(session))
        t0 = time.perf_counter()
        batch = SubintervalScheduler(session.taskset(), m, power)
        plan = batch.plan(method)
        energy = batch.final(method).energy
        rebuild_s += time.perf_counter() - t0
        diverged = None
        if not np.array_equal(plan.timeline.boundaries, session.boundaries):
            diverged = "boundaries"
        elif not np.array_equal(plan.x, session._x):
            diverged = "allocation matrix"
        elif energy != session.energy:
            diverged = f"energy (session {session.energy!r} vs batch {energy!r})"
        if diverged:
            smoke.fail(f"{method}: {diverged} diverged at clock={clock:.3f}")
            return
    speedup = rebuild_s / delta_s if delta_s > 0 else float("inf")
    ratio = session.touched_columns / max(session.total_columns, 1)
    smoke.check(
        speedup >= _SPEEDUP_GATE,
        f"{method:6s} events={_EVENTS} n_max={n_max:3d} "
        f"delta={delta_s * 1e3:7.1f}ms rebuild={rebuild_s * 1e3:7.1f}ms "
        f"speedup={speedup:5.1f}x touched={ratio:.3f}",
        f"{method}: delta speedup {speedup:.1f}x below the "
        f"{_SPEEDUP_GATE:.0f}x gate (delta {delta_s:.3f}s, "
        f"rebuild {rebuild_s:.3f}s)",
    )


def check(smoke: Smoke) -> None:
    """Replay the seed-0 stream once per allocation policy."""
    for method in METHODS:
        _check_method(smoke, method, seed=0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main("incremental-smoke", check))
