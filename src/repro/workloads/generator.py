"""Random workload generators (paper §VI settings).

The paper's generator: release times uniform on ``[0, 200]``, execution
requirements uniform on ``[10, 30]``, and a per-task *intensity* drawn from a
discrete menu ``{0.1, 0.2, …, 1.0}`` (or a sub-range of it), with the
deadline derived as ``D_i = R_i + C_i / intensity_i``.

§VI-C's practical variant scales everything to the XScale's MHz domain:
requirements in megacycles on ``[4000, 8000]``, releases on ``[0, 200]``
seconds, deadlines ``D_i = R_i + C_i/(intensity_i · f₂)`` with ``f₂ =
400 MHz`` the second operating point.

All generators take an explicit :class:`numpy.random.Generator` — there is
no hidden global RNG anywhere in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.task import Task, TaskSet

__all__ = [
    "PaperWorkloadConfig",
    "paper_workload",
    "xscale_workload",
    "bursty_workload",
    "intensity_menu",
]


def intensity_menu(low: float = 0.1, high: float = 1.0, step: float = 0.1) -> np.ndarray:
    """The paper's discrete intensity choices ``{low, low+step, …, high}``."""
    if not (0 < low <= high <= 1.0):
        raise ValueError("need 0 < low <= high <= 1")
    n = int(round((high - low) / step)) + 1
    menu = low + step * np.arange(n)
    return np.round(menu, 10)


@dataclass(frozen=True)
class PaperWorkloadConfig:
    """Knobs of the §VI generator, defaulting to the paper's values."""

    n_tasks: int = 20
    release_range: tuple[float, float] = (0.0, 200.0)
    work_range: tuple[float, float] = (10.0, 30.0)
    intensity_low: float = 0.1
    intensity_high: float = 1.0
    intensity_step: float = 0.1

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.release_range[1] < self.release_range[0]:
            raise ValueError("release_range must be nondecreasing")
        if not (0 < self.work_range[0] <= self.work_range[1]):
            raise ValueError("work_range must be positive and nondecreasing")


def paper_workload(
    rng: np.random.Generator, config: PaperWorkloadConfig | None = None
) -> TaskSet:
    """Draw one task set exactly per §VI.

    ``D_i = R_i + C_i / intensity_i`` guarantees every window is feasible at
    frequency ``intensity_i ≤ 1``.
    """
    cfg = config or PaperWorkloadConfig()
    n = cfg.n_tasks
    releases = rng.uniform(*cfg.release_range, n)
    works = rng.uniform(*cfg.work_range, n)
    menu = intensity_menu(cfg.intensity_low, cfg.intensity_high, cfg.intensity_step)
    intensities = rng.choice(menu, n)
    deadlines = releases + works / intensities
    return TaskSet.from_arrays(releases, deadlines, works)


def xscale_workload(
    rng: np.random.Generator,
    n_tasks: int = 20,
    f2_mhz: float = 400.0,
    work_range: tuple[float, float] = (4000.0, 8000.0),
    release_range: tuple[float, float] = (0.0, 200.0),
    intensity_low: float = 0.1,
    intensity_high: float = 1.0,
) -> TaskSet:
    """§VI-C practical workload in (seconds, megacycles≈MHz·s) units.

    ``D_i = R_i + C_i / (intensity_i · f₂)`` with ``f₂`` the XScale's second
    operating point, so a task is comfortably feasible at mid-range speeds
    but heavy contention pushes required frequencies toward (and past)
    ``f_max`` — the regime where the paper observes deadline misses for the
    even-allocation schedules.
    """
    releases = rng.uniform(*release_range, n_tasks)
    works = rng.uniform(*work_range, n_tasks)
    menu = intensity_menu(intensity_low, intensity_high)
    intensities = rng.choice(menu, n_tasks)
    deadlines = releases + works / (intensities * f2_mhz)
    return TaskSet.from_arrays(releases, deadlines, works)


def bursty_workload(
    rng: np.random.Generator,
    n_bursts: int = 4,
    tasks_per_burst: int = 6,
    horizon: float = 200.0,
    work_range: tuple[float, float] = (10.0, 30.0),
    slack_factor: float = 2.0,
) -> TaskSet:
    """Clustered arrivals: bursts of near-simultaneous releases.

    Not from the paper — a stress generator that manufactures long heavily
    overlapped subintervals (every burst is one), used by the examples and
    the property-based tests to probe the allocation methods far from the
    uniform-arrival regime.
    """
    if n_bursts < 1 or tasks_per_burst < 1:
        raise ValueError("need at least one burst and one task per burst")
    if slack_factor <= 1.0:
        raise ValueError("slack_factor must exceed 1 (deadline > minimal time)")
    tasks: list[Task] = []
    burst_times = np.sort(rng.uniform(0, horizon, n_bursts))
    for b, t0 in enumerate(burst_times):
        for i in range(tasks_per_burst):
            r = t0 + rng.uniform(0.0, 1.0)
            c = rng.uniform(*work_range)
            d = r + slack_factor * c  # feasible at frequency 1/slack_factor
            tasks.append(Task(r, d, c, name=f"b{b}t{i}"))
    return TaskSet(tasks)
