"""Ablation: DER-based vs even allocation, isolated from the rest.

DESIGN.md's central design choice.  Measures the per-subinterval allocation
kernels themselves and the end-to-end energy gap they produce across a batch
of random instances (the paper's headline qualitative result).
"""

import numpy as np

from repro.core import (
    SubintervalScheduler,
    Timeline,
    allocate_der,
    allocate_evenly,
    solve_ideal,
)
from repro.power import PolynomialPower
from repro.workloads import paper_workload
from repro.workloads.generator import PaperWorkloadConfig

_POWER = PolynomialPower(alpha=3.0, static=0.1)


def _heavy_setup(n=24, m=2, seed=3):
    rng = np.random.default_rng(seed)
    tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=n))
    tl = Timeline(tasks)
    ideal = solve_ideal(tasks, _POWER)
    heavy = tl.heavy(m)
    assert heavy, "instance must have contention"
    return tl, ideal, heavy, m


def test_even_allocation_kernel(benchmark):
    _, _, heavy, m = _heavy_setup()

    def run():
        return [allocate_evenly(sub, m) for sub in heavy]

    out = benchmark(run)
    assert len(out) == len(heavy)


def test_der_allocation_kernel(benchmark):
    _, ideal, heavy, m = _heavy_setup()

    def run():
        return [allocate_der(sub, m, ideal) for sub in heavy]

    out = benchmark(run)
    assert len(out) == len(heavy)


def test_der_wins_energy_across_batch(benchmark):
    """End-to-end F2-vs-F1 energy ratio over a seeded batch of instances."""

    def run():
        ratios = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=20))
            sch = SubintervalScheduler(tasks, 4, _POWER)
            ratios.append(sch.final("der").energy / sch.final("even").energy)
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nF2/F1 energy ratio over 10 instances: mean={np.mean(ratios):.4f} "
        f"min={min(ratios):.4f} max={max(ratios):.4f}"
    )
    assert np.mean(ratios) < 1.0, "DER-based must win on average"
    assert max(ratios) <= 1.0 + 1e-9, "DER-based never loses on these workloads"
