"""Columnar schedules: validated vs unvalidated solves, and the miss encode.

A :class:`~repro.core.schedule.Schedule` holds its segments as columns
from the slot fill to the wire.  This benchmark records what that buys on
the library's end-to-end path ("a task set goes in, a validated schedule
comes out") and on the daemon's per-miss encode
(``results/bench/BENCH_columnar.json`` for the archived full run; a smoke
run prints its report and writes nothing):

* ``solve("subinterval-der")`` with and without the §III-C validator, at
  n=20 (the §VI task sets perfbench's serve-cold sends) and at n=1000 and
  n=4000 (windows 1-20 released over [0, 100], work at intensity 0.1-1,
  m=4: the ROADMAP's large-instance probe); the validated/unvalidated
  ratio is gated below 1.5 at n=1000 and n=4000 and only reported at
  n=20, whose 0.6 ms solves set no large-instance cost;
* one ``/schedule`` miss's result encode on the n=20 sets: ``json.dumps``
  of the result dict with its ``schedule_to_dict`` document (what the
  event loop ran per miss before the worker encoded) against
  ``EncodedResult.of(result, schedule)`` (what the worker runs now).  The
  two must give the same bytes.

Validated and unvalidated solves alternate, so host drift hits both.

Usage::

    python -m benchmarks.bench_columnar --smoke   # n=20 and n=1000
    python -m benchmarks.bench_columnar           # adds n=4000 (~2 GB peak)
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import TaskSet
from repro.engine import Platform, SolveRequest, solve
from repro.io.schedio import schedule_to_dict
from repro.power import PolynomialPower
from repro.service.protocol import EncodedResult
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig

_PLATFORM = Platform(m=4, power=PolynomialPower(alpha=3.0, static=0.1))
#: validated over unvalidated solve time must stay below this ...
RATIO_GATE = 1.5
#: ... at these sizes (n=20 is reported only)
GATED_SIZES = (1000, 4000)
#: (n, task sets or repeats) per size; n=20 uses one solve per §VI set
SMOKE_SIZES = ((20, 200), (1000, 3))
FULL_SIZES = ((20, 300), (1000, 5), (4000, 2))


def _probe(n: int, seed: int) -> TaskSet:
    """The large-instance probe: windows 1-20 released over [0, 100]."""
    rng = np.random.default_rng(seed)
    release = rng.uniform(0.0, 100.0, n)
    window = rng.uniform(1.0, 20.0, n)
    work = window * rng.uniform(0.1, 1.0, n)
    return TaskSet.from_arrays(release, release + window, work)


def _instances(n: int, count: int) -> list[TaskSet]:
    if n == 20:
        rng = np.random.default_rng(0)
        return [paper_workload(rng, PaperWorkloadConfig(n_tasks=n)) for _ in range(count)]
    return [_probe(n, 0)] * count


def _solve_s(tasks: TaskSet, validate: bool):
    request = SolveRequest(tasks=tasks, platform=_PLATFORM)
    t0 = time.perf_counter()
    result = solve("subinterval-der", request, validate=validate)
    return time.perf_counter() - t0, result


def run_size(n: int, count: int) -> tuple[dict, list[str]]:
    """Alternating validated/unvalidated solves of ``count`` instances."""
    plain, checked, segments, violations = [], [], [], 0
    for k, tasks in enumerate(_instances(n, count)):
        for validate in (k % 2 == 0, k % 2 == 1):
            secs, result = _solve_s(tasks, validate)
            (checked if validate else plain).append(secs)
            if validate:
                violations += len(result.violations)
                segments.append(len(result.schedule))
    unvalidated = statistics.median(plain)
    validated = statistics.median(checked)
    ratio = validated / unvalidated
    print(
        f"  n={n:5d}: {statistics.mean(segments):10.0f} segments, unvalidated "
        f"{unvalidated * 1e3:9.2f} ms, validated {validated * 1e3:9.2f} ms, "
        f"ratio {ratio:.3f}",
        flush=True,
    )
    report = {
        "n": n,
        "m": _PLATFORM.m,
        "samples": count,
        "segments_mean": statistics.mean(segments),
        "unvalidated_ms_p50": unvalidated * 1e3,
        "validated_ms_p50": validated * 1e3,
        "ratio": ratio,
        "gated": n in GATED_SIZES,
        "violations": violations,
    }
    problems = []
    if n in GATED_SIZES and ratio >= RATIO_GATE:
        problems.append(
            f"n={n}: validated/unvalidated {ratio:.2f} reaches the {RATIO_GATE} gate"
        )
    return report, problems


def _per_call_ms(fn, items, rounds: int = 5) -> float:
    """Median over rounds of the mean per-item time of ``fn``."""
    per_round = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        per_round.append((time.perf_counter() - t0) / len(items))
    return statistics.median(per_round) * 1e3


def run_encode(count: int) -> tuple[dict, list[str]]:
    """One miss's result encode, dict + ``json.dumps`` against the worker's."""
    cases = []
    for tasks in _instances(20, count):
        res = solve("subinterval-der", SolveRequest(tasks=tasks, platform=_PLATFORM),
                    validate=False)
        result = {
            "kind": res.kind,
            "energy": float(res.energy),
            "n_tasks": len(tasks),
            "m": _PLATFORM.m,
            "method": "der",
            "solver": res.solver,
        }
        cases.append((result, res.schedule))

    def as_dict(case):
        result, schedule = case
        return json.dumps({**result, "schedule": schedule_to_dict(schedule)}).encode()

    def as_columns(case):
        return EncodedResult.of(*case).data

    mismatches = sum(as_dict(c) != as_columns(c) for c in cases)
    dict_ms = _per_call_ms(as_dict, cases)
    columns_ms = _per_call_ms(as_columns, cases)
    print(
        f"  encode: dict + json.dumps {dict_ms:.3f} ms, EncodedResult.of "
        f"{columns_ms:.3f} ms ({dict_ms / columns_ms:.2f}x), "
        f"{mismatches} byte mismatches over {len(cases)} results",
        flush=True,
    )
    report = {
        "results": len(cases),
        "segments_mean": statistics.mean(len(s) for _, s in cases),
        "bytes_mean": statistics.mean(len(as_columns(c)) for c in cases),
        "dict_dumps_ms": dict_ms,
        "encoded_result_ms": columns_ms,
        "speedup": dict_ms / columns_ms,
        "byte_mismatches": mismatches,
    }
    problems = [f"encode: {mismatches} results differ in bytes"] if mismatches else []
    return report, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="n=20 and n=1000 only; print the report, write nothing")
    args = ap.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    print(f"columnar schedules: sizes {[n for n, _ in sizes]}, m={_PLATFORM.m}", flush=True)
    problems: list[str] = []
    solves = []
    for n, count in sizes:
        report, probs = run_size(n, count)
        solves.append(report)
        problems.extend(probs)
    encode, probs = run_encode(sizes[0][1])
    problems.extend(probs)

    report = {
        "benchmark": "columnar-schedules",
        "mode": "smoke" if args.smoke else "full",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": _platform.platform(),
            "python": _platform.python_version(),
        },
        "ratio_gate": RATIO_GATE,
        "solves": solves,
        "encode": encode,
        "failures": problems,
    }
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.smoke:
        print(text, end="", flush=True)
    else:
        out = (
            Path(__file__).resolve().parent.parent
            / "results" / "bench" / "BENCH_columnar.json"
        )
        out.write_text(text)
        print(f"wrote {out}", flush=True)
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
