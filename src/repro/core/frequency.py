"""Frequency refinement: per-task single-frequency optimization (§V-B.2).

After allocation, each task ``τ_i`` owns a total available time ``A_i``.  By
Observation 1 a task should run all of its segments at one common frequency,
so the final per-task problem is

    ``min C_i (γ f^{α−1} + p₀ / f)   s.t.   f ≥ C_i / A_i``

whose KKT solution is ``f_i = max{f_crit, C_i / A_i}``.  When the clamp at
the critical frequency binds, the task *uses less than its available time*
(the Fig. 3 effect: with static power, stretching to fill all available time
wastes energy).

This module also exposes the elementary single-task helpers used by the
examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.models import PolynomialPower

__all__ = ["FrequencyAssignment", "refine_frequencies", "best_single_frequency"]


@dataclass(frozen=True)
class FrequencyAssignment:
    """Outcome of the per-task frequency refinement.

    Attributes
    ----------
    frequencies:
        Chosen frequency ``f_i`` per task.
    used_times:
        Actual execution time ``C_i / f_i`` (≤ available time).
    energies:
        Per-task energy ``C_i (γ f^{α−1} + p₀/f)``.
    clamped:
        Mask — True where the critical frequency bound was active, i.e. the
        task deliberately leaves available time unused.
    """

    frequencies: np.ndarray
    used_times: np.ndarray
    energies: np.ndarray
    clamped: np.ndarray

    @property
    def total_energy(self) -> float:
        """Total energy of the assignment."""
        return float(self.energies.sum())


def refine_frequencies(
    works: np.ndarray,
    available_times: np.ndarray,
    power: PolynomialPower,
) -> FrequencyAssignment:
    """Vectorized solution of the refinement problem for every task.

    ``available_times`` must be positive wherever ``works`` is positive —
    an infeasible allocation (no time for a task with work) is a caller bug
    and raises.
    """
    works = np.asarray(works, dtype=np.float64)
    available_times = np.asarray(available_times, dtype=np.float64)
    if works.shape != available_times.shape:
        raise ValueError("works and available_times must have the same shape")
    busy = works > 0
    if ((available_times <= 0) & busy).any():
        raise ValueError("task with positive work has zero available time")

    f_crit = power.critical_frequency()
    with np.errstate(divide="ignore", invalid="ignore"):
        f_min = np.where(busy, works / np.maximum(available_times, 1e-300), 0.0)
    freqs = np.maximum(f_crit, f_min)
    # tasks with zero work get a harmless placeholder frequency
    freqs = np.where(busy, freqs, max(f_crit, 1.0))
    used = np.where(busy, works / freqs, 0.0)
    energies = np.where(busy, np.asarray(power.energy_per_work(freqs)) * works, 0.0)
    clamped = busy & (freqs > f_min * (1 + 1e-12))
    return FrequencyAssignment(
        frequencies=freqs, used_times=used, energies=energies, clamped=clamped
    )


def best_single_frequency(
    work: float, available_time: float, power: PolynomialPower
) -> tuple[float, float]:
    """Single-task convenience: ``(f*, E*)`` given work and available time.

    Reproduces the paper's Fig. 3 example: with ``p(f) = f² + 0.25``, 2 units
    of work and 5 units of available time, the optimum is ``f = 0.5`` using
    only 4 time units for energy 2.0 (running at 0.4 over all 5 units costs
    2.05).
    """
    if work <= 0:
        raise ValueError("work must be positive")
    if available_time <= 0:
        raise ValueError("available_time must be positive")
    f = max(power.critical_frequency(), work / available_time)
    return f, float(power.energy_per_work(f)) * work
