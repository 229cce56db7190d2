"""Incremental-session benchmark: delta re-planning vs full rebuild.

Streams a paper-style aperiodic workload through the online scheduler
twice per allocation policy — once with the full-rebuild oracle
(``tests.oracles.online_rebuild``: a fresh :class:`SubintervalScheduler`
at every release instant) and once with the incremental
:class:`ScheduleSession` re-plan — and emits a
machine-readable report (``results/bench/BENCH_incremental.json`` for the
archived full run, ``BENCH_incremental_smoke.json`` for smoke runs):

* wall time per engine and the session/rebuild speedup,
* re-plan events per second for each engine,
* the fraction of subinterval columns the session actually recomputed
  (the rebuild engine's ratio is 1 by construction),
* the energies of both executed schedules, which must agree exactly —
  the session's plan matches the batch rebuild bit-for-bit.

Two modes:

* ``--smoke`` — a small stream with a *soft* speedup gate (default 2×,
  lenient for noisy runners); any energy disagreement fails hard.
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

from repro.core import OnlineSubintervalScheduler
from repro.power import PolynomialPower
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig
from tests.oracles import online_rebuild

_POWER = PolynomialPower(alpha=3.0, static=0.1)
METHODS = ("even", "der")


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
    ap.add_argument("--out", type=Path, default=None)
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

    report = {
        "benchmark": "incremental-session",
        "mode": "smoke" if args.smoke else "full",
        "n_tasks": n_tasks,
        "m": args.m,
        "seed": args.seed,
        "speedup_gate": gate,
        "headline_speedup": max(m["speedup"] for m in methods.values()),
        "methods": methods,
    }
    out = args.out
    if out is None:
        stem = "BENCH_incremental_smoke" if args.smoke else "BENCH_incremental"
        out = Path(__file__).resolve().parent.parent / "results" / "bench" / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", flush=True)

    if regressions:
        for r in regressions:
            print(f"REGRESSION: {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
