"""The workloads: their inputs, timed phases, output checks and metrics.

Every workload runs from a seed and a time budget and hands back a
:class:`Run`.  Output checks run after the timed phase, so they never load
the host while it is timing.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.core.admission import AdmissionController
from repro.core.ideal import solve_ideal
from repro.core.task import Task
from repro.engine import Platform, SolveRequest, solve
from repro.io.schedio import schedule_from_json
from repro.sim.validate import validate_schedule

import inputs
import layers
from measure import (
    HostSpeed,
    due_time_latency,
    group_cpu_s,
    peak_rss_mb,
    percentile,
    supports_percentile,
)
from serve import (
    Conn,
    Daemon,
    Op,
    closed_loop,
    encode_request,
    on_conns,
    open_loop,
    run_async,
    trace_id,
)

#: fresh daemons booted per run to time set-up; the last one serves the run
SETUPS = 3
#: open-loop rates (req/s), fixed so parent and child see the same offered load:
#: at most about half the closed-loop throughput when the shared 2-core host
#: runs slow (serve-cold 72-200 op/s, serve-hot 505-1600 op/s were both seen),
#: so queueing does not amplify the host's own speed drift
COLD_RATE, HOT_RATE = 40.0, 150.0
#: serve-hot's popular task sets: well inside the 256-entry plan cache
HOT_SETS = 64
#: keep-alive connections of the serve workloads: the host's core count
CONNS = 2
#: share of each serve run spent in the closed-loop throughput phase
CLOSED_SHARE = 0.5
#: the timed phase alternates this many open-loop and closed-loop blocks, so
#: both phases sample the whole run, not one stretch of the host's speed
BLOCKS = 20
#: admit-stream: distinct arrival streams per run and arrivals per stream
STREAMS, ARRIVALS = 4, 100
#: admit-stream samples the host's speed before every this many admits
CALIBRATE_EVERY = 25
#: relative tolerance of the energy checks
RTOL = 1e-9


@dataclass
class Ctx:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Run:
    """What a workload reports: metrics, operation counts and check notes."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    invalid: str | None = None
    energy_ratios: list = field(default_factory=list)  # per checked reply, see put_energy_ratio

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def with_layers(self, table) -> "Run":
        self.metrics = table.values
        self.notes += table.notes
        return self

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            self.notes.append(f"CHECK FAILED: {message}")


def poisson_offsets(seed: int, rate: float, seconds: float) -> list[float]:
    """Send times of ``rate * seconds`` Poisson arrivals: every seed gets as many samples."""
    gaps = inputs.rng_for(seed, "arrivals").exponential(1.0 / rate, round(rate * seconds))
    return [float(t) for t in np.cumsum(gaps)]


def schedule_requests(tasksets: list, first_id: int = 0) -> list[bytes]:
    return [
        encode_request(
            "POST",
            "/v1/schedule",
            inputs.encode(inputs.schedule_body(ts)),
            {"x-trace-id": trace_id(first_id + i)},
        )
        for i, ts in enumerate(tasksets)
    ]


def boot(ctx: Ctx, warmup: list[bytes], times: int) -> tuple[Daemon, list[float]]:
    """Boot ``times`` fresh daemons one after another, timing each; keep the last running."""
    setups = []
    for k in range(times):
        daemon = Daemon(ctx.root, ctx.workdir)
        try:
            setups.append(daemon.start(warmup))
        except BaseException:
            daemon.stop()
            raise
        if k < times - 1:
            daemon.stop()
    return daemon, setups


def warmup_requests(seed: int) -> list[bytes]:
    """Two solves outside the measured set: they bring up both pool workers."""
    rng = inputs.rng_for(seed, "warm-up")
    body = [inputs.encode(inputs.schedule_body(inputs.paper_taskset(rng))) for _ in range(CONNS)]
    return [encode_request("POST", "/v1/schedule", b) for b in body]


def put_latencies(run: Run, lat_ms: list[float], late_window: list[float]) -> None:
    n = len(lat_ms)
    run.put("p50_ms", percentile(lat_ms, 50), "ms", n)
    for q in (90, 99):
        if supports_percentile(n, q):
            run.put(f"p{q}_ms", percentile(lat_ms, q), "ms", n)
        else:
            run.notes.append(f"p{q}_ms not reported: {n} samples leave fewer than 10 beyond it")
    run.put("late_p50_ms", percentile(late_window, 50), "ms", len(late_window))


def put_timings(
    run: Run, speed: HostSpeed, setups: list[float], ops_per_s: float, n_ops: int,
    cpu_ms_per_op: float, n_cpu: int,
) -> None:
    """The bounded timings, scaled to the nominal host speed; a note keeps them as measured.

    The shared host's speed moves every timing of a run by the same
    factor, which the calibration slices measure in the same run.
    """
    f = speed.factor()
    setup = statistics.median(setups)
    run.put("setup_s", setup * f, "s", len(setups))
    run.put("ops_per_s", ops_per_s / f, "op/s", n_ops)
    run.put("cpu_ms_per_op", cpu_ms_per_op * f, "ms", n_cpu)
    run.notes.append(
        f"host speed {f:.4f} x nominal over {len(speed.rates)} calibration slices; as measured: "
        f"setup_s {setup:.4f} s, ops_per_s {ops_per_s:.3f} op/s, "
        f"cpu_ms_per_op {cpu_ms_per_op:.4f} ms"
    )


def put_failures(run: Run) -> None:
    run.put("fail_frac", run.failed / run.attempted, "ratio", run.attempted)


def ideal_energies(rows: list) -> np.ndarray:
    """Per-task energy ``E_i^O`` of the ideal unlimited-core case (paper §V-A)."""
    return solve_ideal(inputs.taskset(rows), inputs.power()).energies


def put_energy_ratio(run: Run) -> None:
    """Schedule quality: mean served energy over the ideal-case energy of the same tasks.

    ``E^O`` is the paper's "Idl" lower reference and costs microseconds,
    where the exact optimum behind a NEC costs up to a second per task set.
    A worse but still valid schedule raises the ratio; a change that only
    makes the program faster leaves it exactly as it was.
    """
    run.put("energy_ratio", statistics.fmean(run.energy_ratios), "ratio", len(run.energy_ratios))


# -- serve-cold and serve-hot ---------------------------------------------------


class ScheduleChecker:
    """Checks served ``/v1/schedule`` replies against the in-process library."""

    def __init__(self, run: Run):
        self.run = run
        self.platform = Platform(m=inputs.M, power=inputs.power())
        self.verified: dict[int, dict] = {}  # task-set index -> checked result
        self.ratios: dict[int, float] = {}  # task-set index -> energy over E^O
        self.schedules = []  # decoded served schedules, for the encode timing

    def result_of(self, op) -> dict | None:
        self.run.attempted += 1
        if op.status != 200:
            self.run.fail(f"request {op.index} answered HTTP {op.status}")
            return None
        try:
            return json.loads(op.body)["result"]
        except (ValueError, KeyError) as exc:
            self.run.fail(f"request {op.index}: unreadable reply ({exc})")
            return None

    def full(self, op, key: int, tasks: list) -> None:
        """Validate the served schedule and match its energy to an in-process solve."""
        result = self.result_of(op)
        if result is None:
            return
        try:
            schedule = schedule_from_json(json.dumps(result["schedule"]))
        except (KeyError, ValueError, TypeError) as exc:
            self.run.fail(f"request {op.index}: bad schedule document ({exc})")
            return
        violations = validate_schedule(schedule)
        if violations:
            self.run.fail(f"request {op.index}: {violations[0]}")
            return
        request = SolveRequest(tasks=inputs.taskset(tasks), platform=self.platform)
        ref = solve("subinterval-der", request, validate=False)
        if not math.isclose(result["energy"], ref.energy, rel_tol=RTOL, abs_tol=0.0):
            self.run.fail(f"request {op.index}: energy {result['energy']!r} != {ref.energy!r}")
            return
        self.verified[key] = {k: v for k, v in result.items() if k != "cache_hit"}
        self.ratios[key] = result["energy"] / float(ideal_energies(tasks).sum())
        self.run.energy_ratios.append(self.ratios[key])
        self.schedules.append(schedule)

    def same(self, op, key: int) -> None:
        """A repeated task set must be served exactly the verified result."""
        result = self.result_of(op)
        if result is None:
            return
        if {k: v for k, v in result.items() if k != "cache_hit"} != self.verified.get(key):
            self.run.fail(f"request {op.index}: reply differs from the verified one")
            return
        self.run.energy_ratios.append(self.ratios[key])


@dataclass
class Served:
    """What one serve workload's daemons answered, for checking and metrics."""

    ops: list  # the timed open loop
    closed: list  # the closed-loop throughput phase (empty in a traced run)
    closed_s: float  # wall time of the closed-loop blocks
    primes: list  # priming replies
    cpu_s: float  # CPU of the daemon's process group over the timed phase
    rss_mb: float
    setups: list
    speed: HostSpeed  # calibrated between the timed phase's blocks
    traced: object  # layers.Traced of the traced run, else None


async def _interleaved(
    conns, pid: int, requests, offsets, open_s: float, closed_s: float,
    closed_requests, cycle: bool, start: int, speed: HostSpeed,
):
    """The timed phase: :data:`BLOCKS` rounds of an open-loop block, then a closed-loop block.

    Open-loop block ``b`` sends the Poisson arrivals due in its share of
    ``open_s`` (the last block also those due after ``open_s``).
    Closed-loop blocks take ``closed_requests`` in order from ``start``.
    ``speed`` is sampled before every round and after the last, while
    the daemon is idle.
    Returns ``(open ops, closed ops, daemon CPU s, closed-loop wall s)``.
    """
    ops, closed, wall_s = [], [], 0.0
    span = open_s / BLOCKS
    cpu0 = group_cpu_s(pid)
    for b in range(BLOCKS):
        lo = bisect_left(offsets, b * span)
        hi = len(offsets) if b == BLOCKS - 1 else bisect_left(offsets, (b + 1) * span)
        speed.sample()
        ops += await open_loop(conns, requests, [t - b * span for t in offsets[lo:hi]], lo)
        t0 = time.perf_counter()
        closed += await closed_loop(
            conns, closed_requests, closed_s / BLOCKS, cycle, start + len(closed)
        )
        wall_s += time.perf_counter() - t0
    speed.sample()
    return ops, closed, group_cpu_s(pid) - cpu0, wall_s


def _serve(
    ctx: Ctx, requests, offsets, open_s: float, closed_start: int | None, prime: list[bytes]
) -> Served:
    """Time the interleaved open and closed loops on a fresh daemon.

    ``prime`` is sent once, one request at a time, before timing.  The
    closed loop sends ``requests`` from ``closed_start`` on, or cycles
    through ``prime`` when ``closed_start`` is None.  A traced run skips
    the closed loop and repeats the open loop on a traced daemon.
    """
    warmup = warmup_requests(ctx.seed)

    def primed(daemon):
        return run_async(on_conns(daemon.port, 1, lambda c: closed_loop(c, prime, math.inf, False)))

    def timed(daemon):
        return run_async(on_conns(daemon.port, CONNS, lambda c: open_loop(c, requests, offsets)))

    daemon, setups = boot(ctx, warmup, 1 if ctx.trace else SETUPS)
    closed, closed_s, cpu_s, speed = [], 0.0, 0.0, HostSpeed()
    try:
        primes = primed(daemon) if prime else []
        pid = daemon.proc.pid
        if ctx.trace:
            ops = timed(daemon)
        else:
            cycle = closed_start is None

            def interleaved(conns):
                return _interleaved(
                    conns, pid, requests, offsets, open_s, ctx.seconds - open_s,
                    prime if cycle else requests, cycle, closed_start or 0, speed,
                )

            ops, closed, cpu_s, closed_s = run_async(on_conns(daemon.port, CONNS, interleaved))
        rss = peak_rss_mb(pid)
    finally:
        daemon.stop()
    traced = layers.traced_daemon_phase(ctx, warmup, timed, primed) if ctx.trace else None
    return Served(ops, closed, closed_s, primes, cpu_s, rss, setups, speed, traced)


def _check_lateness(run: Run, ops, rate: float) -> None:
    """Flag the run invalid when the open-loop generator fell behind its schedule.

    A send later than one mean inter-arrival gap merges with the next one;
    when one send in ten does, the offered load is no longer the Poisson
    process the workload names (rarer late sends are host preemption).
    """
    late = [due_time_latency(o.due, o.sent, o.done)[1] for o in ops]
    late_p90, gap_ms = percentile(late, 90), 1e3 / rate
    run.notes.append(
        f"client.late_ms p99 {percentile(late, 99):.3f} ms, p90 {late_p90:.3f} ms "
        f"over {len(late)} sends (mean gap {gap_ms:.2f} ms)"
    )
    if late_p90 > gap_ms:
        run.invalid = f"generator fell behind: p90 lateness {late_p90:.2f} ms > gap {gap_ms:.2f} ms"


def _open_loop_metrics(run: Run, served: Served, rate: float) -> None:
    lat = [due_time_latency(o.due, o.sent, o.done)[0] for o in served.ops]
    put_latencies(run, lat, lat[-max(len(lat) // 10, 1) :])
    done = len(served.ops) + len(served.closed)
    put_timings(
        run, served.speed, served.setups, len(served.closed) / served.closed_s,
        len(served.closed), served.cpu_s * 1e3 / done, done,
    )
    run.put("rss_mb", served.rss_mb, "MB", 1)
    put_energy_ratio(run)
    put_failures(run)
    _check_lateness(run, served.ops, rate)


def serve_cold(ctx: Ctx) -> Run:
    run = Run()
    open_s = ctx.seconds * (1.0 - CLOSED_SHARE)
    offsets = poisson_offsets(ctx.seed, COLD_RATE, open_s / 2 if ctx.trace else open_s)
    rng = inputs.rng_for(ctx.seed, "serve-cold")
    # the closed loop takes the sets after the open loop's: no daemon sees one twice
    closed_sets = 0 if ctx.trace else int(ctx.seconds * CLOSED_SHARE * 1000)
    tasksets = [inputs.paper_taskset(rng) for _ in range(len(offsets) + closed_sets)]
    requests = schedule_requests(tasksets)
    served = _serve(ctx, requests, offsets, open_s, len(offsets), prime=[])

    checker = ScheduleChecker(run)
    for op in [*served.ops, *served.closed, *(served.traced.result if ctx.trace else ())]:
        checker.full(op, op.index, tasksets[op.index])
    if ctx.trace:
        _check_lateness(run, served.ops, COLD_RATE)
        _check_lateness(run, served.traced.result, COLD_RATE)
        return run.with_layers(
            layers.serve_layers("serve-cold", served.ops, served.traced, checker, tasksets)
        )
    _open_loop_metrics(run, served, COLD_RATE)
    return run


def serve_hot(ctx: Ctx) -> Run:
    run = Run()
    open_s = ctx.seconds * (1.0 - CLOSED_SHARE)
    offsets = poisson_offsets(ctx.seed, HOT_RATE, open_s / 2 if ctx.trace else open_s)
    rng = inputs.rng_for(ctx.seed, "serve-hot")
    popular = [inputs.paper_taskset(rng) for _ in range(HOT_SETS)]
    requests = schedule_requests([popular[i % HOT_SETS] for i in range(len(offsets))])
    # every popular set once before timing, so each timed request is a cache
    # hit; their trace ids stay apart from the timed requests'
    prime = schedule_requests(popular, first_id=1 << 64)
    served = _serve(ctx, requests, offsets, open_s, None, prime)

    checker = ScheduleChecker(run)
    for op in served.primes:
        checker.full(op, op.index, popular[op.index])
    for op in [*served.ops, *served.closed, *(served.traced.result if ctx.trace else ())]:
        checker.same(op, op.index % HOT_SETS)
    if ctx.trace:
        _check_lateness(run, served.ops, HOT_RATE)
        _check_lateness(run, served.traced.result, HOT_RATE)
        return run.with_layers(
            layers.serve_layers("serve-hot", served.ops, served.traced, checker, popular)
        )
    _open_loop_metrics(run, served, HOT_RATE)
    return run


# -- admit-stream ---------------------------------------------------------------


def admit_streams(seed: int) -> list[list[list[float]]]:
    rng = inputs.rng_for(seed, "admit-stream")
    return [inputs.admission_stream(rng, ARRIVALS) for _ in range(STREAMS)]


async def _admit_episodes(
    port: int, streams, seconds: float, most: int | None = None, speed: HostSpeed | None = None
) -> list[dict]:
    """Closed loop on one connection: reset, admit a whole stream, peek; repeat.

    Episodes cycle through ``streams`` until ``seconds`` have passed or
    ``most`` episodes have run; an episode in progress always completes.
    ``speed``, when given, is sampled before every :data:`CALIBRATE_EVERY`
    admits and after the last episode, while the daemon is idle.
    """
    reset = encode_request("POST", "/v1/admit", inputs.encode(inputs.admit_body(reset=True)))
    peek = encode_request("POST", "/v1/admit", inputs.encode(inputs.admit_body(peek=True)))
    encoded = [
        [
            encode_request(
                "POST", "/v1/admit", inputs.encode(inputs.admit_body(task)),
                {"x-trace-id": trace_id(s * ARRIVALS + i)},
            )
            for i, task in enumerate(stream)
        ]
        for s, stream in enumerate(streams)
    ]
    conn = await Conn.open(port)
    episodes = []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline and len(episodes) != most:
            s = len(episodes) % len(streams)
            status, _ = await conn.send(reset)
            ops = []
            for i, request in enumerate(encoded[s]):
                if speed is not None and i % CALIBRATE_EVERY == 0:
                    speed.sample()
                t0 = time.perf_counter()
                st, body = await conn.send(request)
                ops.append(Op(s * ARRIVALS + i, t0, t0, t0, time.perf_counter(), st, body))
            peek_status, peek_body = await conn.send(peek)
            episodes.append({"stream": s, "ops": ops, "peek": (peek_status, peek_body), "reset": status})
        if speed is not None:
            speed.sample()
    finally:
        await conn.close()
    return episodes


def replay_stream(stream: list) -> dict:
    """The in-process AdmissionController replay the daemon must match bit for bit."""
    ctl = AdmissionController(m=inputs.M, power=inputs.power(), f_max=inputs.F_MAX)
    check = ctl.is_schedulable
    check_ms: list[float] = []

    def timed_check(tasks):
        t0 = time.perf_counter()
        try:
            return check(tasks)
        finally:
            check_ms.append((time.perf_counter() - t0) * 1e3)

    ctl.is_schedulable = timed_check
    acks = []
    for row in stream:
        n_checks = len(check_ms)
        d = ctl.try_admit(Task(release=row[0], deadline=row[1], work=row[2]), materialize=False)
        acks.append({
            "accepted": d.accepted,
            "reason": d.reason,
            "marginal_energy": d.marginal_energy,
            "committed": len(ctl.committed or ()),
            "total_energy": ctl.current_energy,
            "f_max": inputs.F_MAX,
            "touched_subintervals": d.touched_subintervals,
            "total_subintervals": d.total_subintervals,
        })
        if len(check_ms) == n_checks:
            check_ms.append(0.0)  # rejected before the flow test: no check ran
    session = ctl.session
    empty = session.is_empty
    peek = {
        "peek": True,
        "committed": len(ctl.committed or ()),
        "energy": 0.0 if empty else float(session.energy),
        "boundaries": [] if empty else [float(b) for b in session.boundaries],
        "x": [] if empty else [[float(v) for v in row] for row in session.plan().x],
        "n_subintervals": 0 if empty else session.n_subintervals,
    }
    admitted = np.array([a["accepted"] for a in acks], dtype=bool)
    # JSON round trip: the daemon's floats arrive through json, which is exact
    return {
        "acks": json.loads(json.dumps(acks)),
        "peek": json.loads(json.dumps(peek)),
        "check_ms": check_ms,
        # E^O of the tasks admitted so far, after each arrival
        "ideal": np.cumsum(np.where(admitted, ideal_energies(stream), 0.0)).tolist(),
    }


def check_episodes(run: Run, episodes, replays) -> None:
    for ep in episodes:
        ref = replays[ep["stream"]]
        if ep["reset"] != 200:
            run.fail(f"reset answered HTTP {ep['reset']}")
        for op, want, ideal in zip(ep["ops"], ref["acks"], ref["ideal"]):
            run.attempted += 1
            if op.status != 200:
                run.fail(f"admit {op.index} answered HTTP {op.status}")
                continue
            got = json.loads(op.body)["result"]
            if got != want:
                run.fail(f"admit {op.index}: verdict {got} != replay {want}")
            elif ideal > 0.0:
                run.energy_ratios.append(got["total_energy"] / ideal)
        status, body = ep["peek"]
        if status != 200 or json.loads(body)["result"] != ref["peek"]:
            run.fail(f"stream {ep['stream']}: final peek differs from the replay")


def admit_stream(ctx: Ctx) -> Run:
    run = Run()
    streams = admit_streams(ctx.seed)
    warmup = warmup_requests(ctx.seed)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    daemon, setups = boot(ctx, warmup, 1 if ctx.trace else SETUPS)
    speed = HostSpeed()
    try:
        pid = daemon.proc.pid
        cpu0 = group_cpu_s(pid)
        t0 = time.perf_counter()
        # the traced run's reference phase admits each stream once, as its traced phase does
        most, sampled = (STREAMS, None) if ctx.trace else (None, speed)
        episodes = run_async(_admit_episodes(daemon.port, streams, seconds, most, sampled))
        elapsed = time.perf_counter() - t0 - speed.spent_s
        cpu_s = group_cpu_s(pid) - cpu0
        rss = peak_rss_mb(pid)
    finally:
        daemon.stop()
    traced = None
    if ctx.trace:
        traced = layers.traced_daemon_phase(
            ctx, warmup, lambda d: run_async(_admit_episodes(d.port, streams, math.inf, STREAMS))
        )

    replays = [replay_stream(s) for s in streams]
    check_episodes(run, episodes, replays)
    if ctx.trace:
        check_episodes(run, traced.result, replays)
        return run.with_layers(layers.admit_layers(episodes, traced, replays, streams))
    ops = [op for ep in episodes for op in ep["ops"]]
    lat = [op.latency_ms for op in ops]
    tail = [op.latency_ms for ep in episodes for op in ep["ops"][-ARRIVALS // 10 :]]
    put_latencies(run, lat, tail)
    put_timings(run, speed, setups, len(ops) / elapsed, len(ops), cpu_s * 1e3 / len(ops), len(ops))
    run.put("rss_mb", rss, "MB", 1)
    put_energy_ratio(run)
    accepted = sum(a["accepted"] for r in replays for a in r["acks"])
    run.notes.append(
        f"{len(episodes)} episodes over {len(streams)} streams; replay accepts "
        f"{accepted} of {len(streams) * ARRIVALS} arrivals"
    )
    put_failures(run)
    return run


WORKLOADS = {
    "serve-cold": serve_cold,
    "serve-hot": serve_hot,
    "admit-stream": admit_stream,
}
