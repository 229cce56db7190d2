"""Incremental-session benchmark: delta re-planning vs full rebuild.

Streams a paper-style aperiodic workload through the online scheduler
twice per allocation policy — once with the full-rebuild oracle
(``tests.oracles.online_rebuild``: a fresh :class:`SubintervalScheduler`
at every release instant) and once with the incremental
:class:`ScheduleSession` re-plan — and emits a
machine-readable report (``results/bench/BENCH_incremental.json`` for the
archived full run; a smoke run prints it and writes nothing):

* wall time per engine and the session/rebuild speedup,
* re-plan events per second for each engine,
* the fraction of subinterval columns the session actually recomputed
  (the rebuild engine's ratio is 1 by construction),
* the energies of both executed schedules, which must agree exactly —
  the session's plan matches the batch rebuild bit-for-bit.

Its admission section replays a seeded ``_make_admit_stream`` (400
arrivals) through ``AdmissionController(m=4, f_max=2)`` with
``materialize=False`` and through the from-scratch
``tests.oracles.admission_oracle``, and reports each one's per-admit p50
by arrival band; any verdict disagreement fails hard, and the last band's
p50 ratio is held to the same speedup gate.

Two modes:

* ``--smoke`` — a small stream with a *soft* speedup gate (default 2×,
  lenient for noisy runners) and 100 arrivals; any energy or verdict
  disagreement fails hard.
* default (full) — the headline n=1000 measurement behind the ≥5×
  acceptance gate; the rebuild engine alone takes minutes, so run
  manually and commit the JSON.

Usage::

    python -m benchmarks.bench_incremental --smoke
    python -m benchmarks.bench_incremental --n-tasks 1000
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import AdmissionController, OnlineSubintervalScheduler, Task
from repro.power import PolynomialPower
from repro.service.loadgen import _make_admit_stream
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig
from tests.oracles import admission_oracle, online_rebuild

_POWER = PolynomialPower(alpha=3.0, static=0.1)
METHODS = ("even", "der")
#: admission stream: arrival bands [lo, hi) whose per-admit p50 is reported
ADMIT_BANDS = ((0, 50), (50, 100), (100, 200), (200, 400))
ADMIT_M, ADMIT_F_MAX = 4, 2.0


def _instance(n_tasks: int, seed: int):
    rng = np.random.default_rng(seed)
    return paper_workload(rng, PaperWorkloadConfig(n_tasks=n_tasks))


def _time_engine(tasks, m: int, method: str, engine: str) -> dict:
    t0 = time.perf_counter()
    if engine == "rebuild":
        res = online_rebuild(tasks, m, _POWER, method=method)
    else:
        res = OnlineSubintervalScheduler(tasks, m, _POWER, method=method).run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "replans": res.replans,
        "events_per_s": res.replans / wall if wall > 0 else float("inf"),
        "energy": float(res.energy),
        "touched_subintervals": res.touched_subintervals,
        "total_subintervals": res.total_subintervals,
        "touched_ratio": res.touched_ratio,
    }


def run_method(
    tasks, m: int, method: str, gate: float
) -> tuple[dict, list[str]]:
    """Benchmark one policy; returns (report, regression messages)."""
    session = _time_engine(tasks, m, method, "session")
    print(
        f"  {method:>4s} session: {session['wall_s']:8.2f}s, "
        f"{session['events_per_s']:7.1f} replans/s, "
        f"touched={session['touched_ratio']:.3f}",
        flush=True,
    )
    rebuild = _time_engine(tasks, m, method, "rebuild")
    print(
        f"  {method:>4s} rebuild: {rebuild['wall_s']:8.2f}s, "
        f"{rebuild['events_per_s']:7.1f} replans/s",
        flush=True,
    )
    speedup = rebuild["wall_s"] / session["wall_s"]
    d_energy = abs(session["energy"] - rebuild["energy"])
    print(f"  {method:>4s} speedup: {speedup:.1f}x, |dE|={d_energy:.3e}", flush=True)
    report = {
        "session": session,
        "rebuild": rebuild,
        "speedup": speedup,
        "abs_energy_diff": d_energy,
    }
    regressions: list[str] = []
    if d_energy > 0.0:
        regressions.append(
            f"{method}: session energy {session['energy']!r} != "
            f"rebuild energy {rebuild['energy']!r}"
        )
    if speedup < gate:
        regressions.append(
            f"{method}: speedup {speedup:.2f}x below the {gate:.0f}x gate"
        )
    return report, regressions


def _timed(verdicts) -> tuple[list[bool], list[float]]:
    """Drain a verdict iterator, timing each step."""
    out, secs = [], []
    while True:
        t0 = time.perf_counter()
        verdict = next(verdicts, None)
        if verdict is None:
            return out, secs
        secs.append(time.perf_counter() - t0)
        out.append(verdict)


def run_admission(n: int, seed: int, gate: float) -> tuple[dict, list[str]]:
    """Live-flow admission against the from-scratch oracle, per arrival band."""
    stream = _make_admit_stream(n, seed)
    ctl = AdmissionController(ADMIT_M, _POWER, f_max=ADMIT_F_MAX)
    live, live_s = _timed(
        ctl.try_admit(Task(*row), materialize=False).accepted for row in stream
    )
    oracle, oracle_s = _timed(
        accepted for accepted, _ in admission_oracle(stream, ADMIT_M, _POWER, ADMIT_F_MAX)
    )
    bands = []
    for lo, hi in ADMIT_BANDS:
        if lo >= n:
            break
        live_p50 = float(np.median(live_s[lo:hi])) * 1e3
        oracle_p50 = float(np.median(oracle_s[lo:hi])) * 1e3
        bands.append({
            "arrivals": [lo, min(hi, n)],
            "live_p50_ms": live_p50,
            "oracle_p50_ms": oracle_p50,
            "speedup": oracle_p50 / live_p50,
        })
        print(
            f"  admit {lo:3d}-{min(hi, n):3d}: live p50 {live_p50:7.2f} ms, "
            f"oracle p50 {oracle_p50:8.2f} ms, {oracle_p50 / live_p50:6.1f}x",
            flush=True,
        )
    disagree = [k for k, (a, b) in enumerate(zip(live, oracle)) if a != b]
    report = {
        "arrivals": n,
        "m": ADMIT_M,
        "f_max": ADMIT_F_MAX,
        "accepted": sum(live),
        "live_total_s": sum(live_s),
        "oracle_total_s": sum(oracle_s),
        "bands": bands,
        "verdict_disagreements": len(disagree),
    }
    regressions = [
        f"admission: arrival {k} verdict {live[k]} but the oracle says {oracle[k]}"
        for k in disagree
    ]
    if bands[-1]["speedup"] < gate:
        regressions.append(
            f"admission: last-band speedup {bands[-1]['speedup']:.2f}x below "
            f"the {gate:.0f}x gate"
        )
    return report, regressions


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small soft-gated run")
    ap.add_argument("--n-tasks", type=int, default=None)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--gate", type=float, default=None,
        help="minimum session/rebuild speedup (default: 2 smoke, 5 full)",
    )
    ap.add_argument("--out", type=Path, default=None,
                    help="write the report here (a smoke run otherwise prints it)")
    args = ap.parse_args(argv)

    n_tasks = args.n_tasks or (300 if args.smoke else 1000)
    gate = args.gate if args.gate is not None else (2.0 if args.smoke else 5.0)
    tasks = _instance(n_tasks, args.seed)
    print(f"online stream: n={n_tasks}, m={args.m}, seed={args.seed}", flush=True)

    methods = {}
    regressions: list[str] = []
    for method in METHODS:
        methods[method], probs = run_method(tasks, args.m, method, gate)
        regressions.extend(probs)
    arrivals = 100 if args.smoke else ADMIT_BANDS[-1][1]
    print(f"admit stream: n={arrivals}, m={ADMIT_M}, seed={args.seed}", flush=True)
    admission, probs = run_admission(arrivals, args.seed, gate)
    regressions.extend(probs)

    report = {
        "benchmark": "incremental-session",
        "mode": "smoke" if args.smoke else "full",
        "n_tasks": n_tasks,
        "m": args.m,
        "seed": args.seed,
        "speedup_gate": gate,
        "headline_speedup": max(m["speedup"] for m in methods.values()),
        "methods": methods,
        "admission": admission,
    }
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.smoke and args.out is None:
        print(text, end="", flush=True)
    else:
        out = args.out or (
            Path(__file__).resolve().parent.parent
            / "results" / "bench" / "BENCH_incremental.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}", flush=True)

    if regressions:
        for r in regressions:
            print(f"REGRESSION: {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
