"""Complexity-curve experiment: heuristic vs optimal runtime (the
"lightweight" claim of §I/§VII as data).

Measures wall-clock of the full S^F2 pipeline and of the exact
interior-point solve across task counts on identical instances, reporting
the speedup factor.  Backing data for ``benchmarks/bench_lightweight.py``
and the table in docs/benchmarking.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.tables import format_csv, format_table
from ..core.scheduler import SubintervalScheduler
from ..optimal import WarmStart, solve_optimal
from ..power.models import PolynomialPower
from ..workloads.generator import PaperWorkloadConfig, paper_workload

__all__ = ["ScalingResult", "KernelScalingResult", "run", "run_kernels"]


@dataclass(frozen=True)
class ScalingResult:
    """Mean runtimes (seconds) per task count."""

    task_counts: tuple[int, ...]
    heuristic_s: np.ndarray
    optimal_s: np.ndarray
    heuristic_nec: np.ndarray  # quality alongside the cost
    reps: int

    @property
    def speedup(self) -> np.ndarray:
        """Optimal solve time over heuristic time."""
        return self.optimal_s / np.maximum(self.heuristic_s, 1e-12)

    def format(self, precision: int = 4) -> str:
        """Text-table rendering."""
        rows = [
            [
                int(n),
                float(self.heuristic_s[i] * 1e3),
                float(self.optimal_s[i] * 1e3),
                float(self.speedup[i]),
                float(self.heuristic_nec[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_table(
            ["n", "S^F2 (ms)", "optimal (ms)", "speedup", "NEC of F2"],
            rows,
            precision=precision,
            title=f"Lightweight-claim scaling ({self.reps} reps, m=4, p0=0.1)",
        )

    def to_csv(self) -> str:
        """CSV rendering."""
        rows = [
            [
                int(n),
                float(self.heuristic_s[i]),
                float(self.optimal_s[i]),
                float(self.heuristic_nec[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_csv(["n", "heuristic_s", "optimal_s", "nec_f2"], rows)


def run(
    reps: int = 5,
    seed: int = 0,
    task_counts: tuple[int, ...] = (10, 20, 40, 80),
    m: int = 4,
) -> ScalingResult:
    """Time both paths on shared instances."""
    power = PolynomialPower(alpha=3.0, static=0.1)
    h_t = np.zeros(len(task_counts))
    o_t = np.zeros(len(task_counts))
    nec = np.zeros(len(task_counts))
    for i, n in enumerate(task_counts):
        ss = np.random.SeedSequence(seed + i)
        for child in ss.spawn(reps):
            rng = np.random.default_rng(child)
            tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=int(n)))

            t0 = time.perf_counter()
            res = SubintervalScheduler(tasks, m, power).final("der")
            h_t[i] += time.perf_counter() - t0

            t0 = time.perf_counter()
            opt = solve_optimal(tasks, m, power)
            o_t[i] += time.perf_counter() - t0

            nec[i] += res.energy / opt.energy
        h_t[i] /= reps
        o_t[i] /= reps
        nec[i] /= reps
    return ScalingResult(
        task_counts=tuple(int(n) for n in task_counts),
        heuristic_s=h_t,
        optimal_s=o_t,
        heuristic_nec=nec,
        reps=reps,
    )


@dataclass(frozen=True)
class KernelScalingResult:
    """Newton-kernel comparison per task count (mean seconds per solve).

    ``auto_s``/``dense_s`` are cold solves with the structure-exploiting
    and dense kernels; ``warm_s`` re-solves the same instance from the
    auto solve's final barrier iterate, handed over as a
    :class:`~repro.optimal.WarmStart`.  ``max_rel_err`` is the worst
    relative energy disagreement of any variant against the dense oracle.
    """

    task_counts: tuple[int, ...]
    auto_s: np.ndarray
    dense_s: np.ndarray
    warm_s: np.ndarray
    max_rel_err: np.ndarray
    reps: int

    @property
    def speedup(self) -> np.ndarray:
        """Dense-oracle time over structured-kernel time (cold)."""
        return self.dense_s / np.maximum(self.auto_s, 1e-12)

    @property
    def warm_speedup(self) -> np.ndarray:
        """Dense-oracle time over warm-started structured time."""
        return self.dense_s / np.maximum(self.warm_s, 1e-12)

    def format(self, precision: int = 4) -> str:
        """Text-table rendering."""
        rows = [
            [
                int(n),
                float(self.dense_s[i] * 1e3),
                float(self.auto_s[i] * 1e3),
                float(self.warm_s[i] * 1e3),
                float(self.speedup[i]),
                float(self.warm_speedup[i]),
                float(self.max_rel_err[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_table(
            ["n", "dense (ms)", "auto (ms)", "warm (ms)",
             "speedup", "warm speedup", "max rel err"],
            rows,
            precision=precision,
            title=f"Newton-kernel scaling ({self.reps} reps, m=8)",
        )

    def to_csv(self) -> str:
        """CSV rendering."""
        rows = [
            [
                int(n),
                float(self.dense_s[i]),
                float(self.auto_s[i]),
                float(self.warm_s[i]),
                float(self.max_rel_err[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_csv(
            ["n", "dense_s", "auto_s", "warm_s", "max_rel_err"], rows
        )


def run_kernels(
    reps: int = 3,
    seed: int = 0,
    task_counts: tuple[int, ...] = (25, 50, 100),
    m: int = 8,
) -> KernelScalingResult:
    """Time the structured kernel, the dense oracle, and a warm re-solve.

    The headline run (``task_counts=(500,)``) backs the archived numbers in
    ``results/bench/BENCH_optimal.json``; the default counts keep the
    experiment interactive.
    """
    power = PolynomialPower(alpha=3.0, static=0.1)
    a_t = np.zeros(len(task_counts))
    d_t = np.zeros(len(task_counts))
    w_t = np.zeros(len(task_counts))
    err = np.zeros(len(task_counts))
    for i, n in enumerate(task_counts):
        ss = np.random.SeedSequence(seed + i)
        for child in ss.spawn(reps):
            rng = np.random.default_rng(child)
            tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=int(n)))

            t0 = time.perf_counter()
            auto = solve_optimal(tasks, m, power, kernel="auto")
            a_t[i] += time.perf_counter() - t0

            # second solve of the same instance, from the first one's iterate
            carried = WarmStart(x=auto.x, t=auto.profile.t_certified)
            t0 = time.perf_counter()
            warm = solve_optimal(tasks, m, power, kernel="auto", warm=carried)
            w_t[i] += time.perf_counter() - t0

            t0 = time.perf_counter()
            dense = solve_optimal(tasks, m, power, kernel="dense")
            d_t[i] += time.perf_counter() - t0

            scale = max(abs(dense.energy), 1.0)
            err[i] = max(
                err[i],
                abs(auto.energy - dense.energy) / scale,
                abs(warm.energy - dense.energy) / scale,
            )
        a_t[i] /= reps
        d_t[i] /= reps
        w_t[i] /= reps
    return KernelScalingResult(
        task_counts=tuple(int(n) for n in task_counts),
        auto_s=a_t,
        dense_s=d_t,
        warm_s=w_t,
        max_rel_err=err,
        reps=reps,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
    print()
    print(run_kernels().format())
