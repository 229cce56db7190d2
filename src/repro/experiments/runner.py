"""Experiment engine: one replication, one data point, one figure.

Structure mirrors §VI's methodology exactly:

* a :class:`PointSpec` fixes platform (``m, α, p₀``) and workload knobs
  (``n`` tasks, intensity range);
* :func:`run_replication` draws one random task set, solves the convex
  program for ``E^(O)``, runs the paper's four schedules plus the ideal
  reference, and returns their NECs;
* :func:`run_point` averages ``reps`` seeded replications (the paper uses
  100), optionally fanning out over processes
  (:mod:`repro.experiments.parallel`);
* each figure module sweeps one knob and collects
  a :class:`SweepResult` whose series are exactly the lines in the paper's
  plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.metrics import SERIES, NecAggregate, NecSample, aggregate
from ..analysis.tables import format_csv, format_series_block
from ..core.task import TaskSet
from ..engine import Platform, SolveRequest, SolveResult, solve
from ..power.models import PolynomialPower
from ..workloads.generator import PaperWorkloadConfig, paper_workload

__all__ = [
    "PointSpec",
    "solve_exact",
    "run_replication",
    "run_point",
    "SweepResult",
    "sweep",
]


@dataclass(frozen=True)
class PointSpec:
    """One data point's configuration (platform + workload)."""

    m: int = 4
    alpha: float = 3.0
    p0: float = 0.0
    n_tasks: int = 20
    intensity_low: float = 0.1
    intensity_high: float = 1.0

    def power(self) -> PolynomialPower:
        """The platform power model of this point."""
        return PolynomialPower(alpha=self.alpha, static=self.p0)

    def workload_config(self) -> PaperWorkloadConfig:
        """The §VI generator configuration of this point."""
        return PaperWorkloadConfig(
            n_tasks=self.n_tasks,
            intensity_low=self.intensity_low,
            intensity_high=self.intensity_high,
        )

    def draw(self, rng: np.random.Generator) -> TaskSet:
        """Draw one random task set for this point."""
        return paper_workload(rng, self.workload_config())


def solve_exact(req: SolveRequest) -> SolveResult:
    """A replication's exact optimum ``E^(O)``, without a schedule.

    A cold interior-point solve: its polish stops at a stationary iterate
    within a handful of FISTA steps at the paper's size, so a
    projected-gradient seed would cost more than the continuation steps
    it skips.
    """
    return solve(
        "optimal:interior-point", req, validate=False, materialize=False
    )


def evaluate_taskset(
    tasks: TaskSet, m: int, power: PolynomialPower
) -> NecSample:
    """All five NEC series on one concrete task set.

    Solvers are requested from the engine registry by name; the shared
    :class:`~repro.engine.SolveRequest` lets the even/DER and
    intermediate/final variants reuse one timeline + ideal solution, and
    ``materialize=False`` skips the (unused) optimal schedule.  The
    numbers are bit-identical to driving the scheduler classes directly —
    the registry routes to the same code.
    """
    req = SolveRequest(tasks=tasks, platform=Platform(m=m, power=power))
    opt = solve_exact(req)
    values = {
        "Idl": req.scheduler().ideal_energy / opt.energy,
        "I1": solve("subinterval-even", req, validate=False,
                    stage="intermediate").energy / opt.energy,
        "F1": solve("subinterval-even", req, validate=False).energy / opt.energy,
        "I2": solve("subinterval-der", req, validate=False,
                    stage="intermediate").energy / opt.energy,
        "F2": solve("subinterval-der", req, validate=False).energy / opt.energy,
    }
    return NecSample(optimal_energy=opt.energy, values=values)


def run_replication(spec: PointSpec, seed: int) -> NecSample:
    """One seeded Monte-Carlo replication of a data point."""
    rng = np.random.default_rng(seed)
    tasks = spec.draw(rng)
    return evaluate_taskset(tasks, spec.m, spec.power())


def run_point(
    spec: PointSpec,
    reps: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> NecAggregate:
    """Average ``reps`` replications of one data point.

    Seeds derive deterministically from ``seed`` via
    :class:`numpy.random.SeedSequence` spawning, so results are identical
    whether run serially or in parallel.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    seeds = _spawn_seeds(seed, reps)
    if workers > 1:
        from .parallel import parallel_replications

        samples = parallel_replications(spec, seeds, workers)
    else:
        samples = [run_replication(spec, s) for s in seeds]
    return aggregate(samples)


def _spawn_seeds(seed: int, reps: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(reps)]


@dataclass(frozen=True)
class SweepResult:
    """A full figure: NEC series over a swept parameter."""

    name: str
    x_label: str
    x_values: tuple
    aggregates: tuple[NecAggregate, ...]
    series_order: tuple[str, ...] = SERIES

    @property
    def series(self) -> dict[str, list[float]]:
        """``{series name: [mean NEC per x]}`` — the lines of the figure."""
        return {
            s: [agg.mean[s] for agg in self.aggregates]
            for s in self.series_order
            if all(s in agg.mean for agg in self.aggregates)
        }

    @property
    def extra_series(self) -> dict[str, list[float]]:
        """Averaged extra observations (e.g. deadline-miss rates)."""
        keys = sorted({k for agg in self.aggregates for k in agg.extra_mean})
        return {
            k: [agg.extra_mean.get(k, float("nan")) for agg in self.aggregates]
            for k in keys
        }

    def format(self, precision: int = 4) -> str:
        """The figure as a text table (one row per x value)."""
        block = format_series_block(
            self.x_label,
            list(self.x_values),
            self.series,
            precision=precision,
            title=self.name,
        )
        extra = self.extra_series
        if extra:
            block += "\n" + format_series_block(
                self.x_label, list(self.x_values), extra, precision=precision,
                title=f"{self.name} — auxiliary observations",
            )
        return block

    def to_csv(self) -> str:
        """The figure data as CSV."""
        series = {**self.series, **self.extra_series}
        headers = [self.x_label, *series.keys()]
        rows = [
            [x, *[series[k][i] for k in series]]
            for i, x in enumerate(self.x_values)
        ]
        return format_csv(headers, rows)

    def to_svg(self, y_label: str = "normalized energy consumption") -> str:
        """The figure as an SVG line chart."""
        from ..analysis.svg import line_chart

        return line_chart(
            [float(x) for x in self.x_values],
            self.series,
            title=self.name,
            x_label=self.x_label,
            y_label=y_label,
        )


def sweep(
    name: str,
    x_label: str,
    specs: Sequence[tuple[object, PointSpec]],
    reps: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> SweepResult:
    """Run ``run_point`` for every ``(x value, spec)`` pair of a figure."""
    x_values = tuple(x for x, _ in specs)
    aggs = tuple(
        run_point(spec, reps=reps, seed=seed + 7919 * i, workers=workers)
        for i, (_, spec) in enumerate(specs)
    )
    return SweepResult(
        name=name, x_label=x_label, x_values=x_values, aggregates=aggs
    )
