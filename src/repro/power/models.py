"""Core power/energy models (paper §III-B).

The paper's platform model: each core, while *active* at frequency ``f``,
consumes ``p(f) = f^α + p₀`` (dynamic plus static power); an idle core sleeps
at zero power.  §VI-C generalizes to the fitted practical form
``p(f) = γ·f^α + p₀``.

Everything downstream only needs three primitives, captured by
:class:`PowerModel`:

* ``power(f)`` — instantaneous active power,
* ``energy(work, f)`` — energy to execute ``work`` cycles at constant ``f``,
  i.e. ``p(f) · work / f``,
* ``critical_frequency()`` — the frequency ``f_crit`` minimizing energy per
  unit of work.  Below ``f_crit`` the static term dominates and slowing down
  *wastes* energy; the paper's closed forms all clamp at this value
  (``f_crit = (p₀ / (γ(α−1)))^{1/α}``).

All methods accept scalars or NumPy arrays and broadcast.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerModel",
    "PolynomialPower",
    "energy_per_work",
]


class PowerModel(ABC):
    """Abstract active-power model of one DVFS core."""

    @abstractmethod
    def power(self, f):
        """Active power drawn while executing at frequency ``f``."""

    @abstractmethod
    def critical_frequency(self) -> float:
        """Frequency minimizing energy per unit of executed work."""

    def energy(self, work, f):
        """Energy to execute ``work`` cycles at constant frequency ``f``.

        ``E = p(f) · (work / f)``.  ``f`` must be positive; zero-work calls
        return zero regardless of ``f`` (vacuous execution).
        """
        work = np.asarray(work, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        if np.any((f <= 0) & (work > 0)):
            raise ValueError("frequency must be positive for nonzero work")
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(work > 0, self.power(np.maximum(f, 1e-300)) * work / np.maximum(f, 1e-300), 0.0)
        if e.ndim == 0:
            return float(e)
        return e

    def energy_over_time(self, f, duration):
        """Energy of running active at ``f`` for ``duration`` time units."""
        f = np.asarray(f, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        e = self.power(f) * duration
        if np.ndim(e) == 0:
            return float(e)
        return e

    def optimal_frequency(self, work, available_time):
        """Energy-optimal single frequency given total available time.

        Solves the paper's per-task refinement problem (eqs. 22–23):
        ``min C(f^{α−1}·γ + p₀/f)  s.t.  f ≥ C / A`` whose solution is
        ``max{f_crit, C / A}``.  Broadcasts over arrays.
        """
        work = np.asarray(work, dtype=np.float64)
        available_time = np.asarray(available_time, dtype=np.float64)
        if np.any(available_time <= 0):
            raise ValueError("available_time must be positive")
        f = np.maximum(self.critical_frequency(), work / available_time)
        if f.ndim == 0:
            return float(f)
        return f


@dataclass(frozen=True)
class PolynomialPower(PowerModel):
    """``p(f) = γ · f^α + p₀`` with ``α ≥ 2``, ``γ > 0``, ``p₀ ≥ 0``.

    ``γ = 1, p₀ = 0`` recovers the classic cube-rule model; §VI-C's Intel
    XScale fit is ``γ = 3.855e−6, α = 2.867, p₀ = 63.58`` (MHz → mW).
    """

    alpha: float = 3.0
    static: float = 0.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 2.0:
            raise ValueError(f"alpha must be >= 2 (paper assumption), got {self.alpha}")
        if self.static < 0.0:
            raise ValueError(f"static power must be >= 0, got {self.static}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    def power(self, f):
        f = np.asarray(f, dtype=np.float64)
        p = self.gamma * np.power(f, self.alpha) + self.static
        if p.ndim == 0:
            return float(p)
        return p

    def critical_frequency(self) -> float:
        """``(p₀ / (γ(α−1)))^{1/α}``; zero when there is no static power."""
        if self.static == 0.0:
            return 0.0
        return float((self.static / (self.gamma * (self.alpha - 1.0))) ** (1.0 / self.alpha))

    def energy_per_work(self, f):
        """Energy per cycle at frequency ``f``: ``γ f^{α−1} + p₀/f``."""
        f = np.asarray(f, dtype=np.float64)
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        e = self.gamma * np.power(f, self.alpha - 1.0) + self.static / f
        if e.ndim == 0:
            return float(e)
        return e

    def with_static(self, static: float) -> "PolynomialPower":
        """Copy of this model with a different static power."""
        return PolynomialPower(alpha=self.alpha, static=static, gamma=self.gamma)

    def with_alpha(self, alpha: float) -> "PolynomialPower":
        """Copy of this model with a different exponent."""
        return PolynomialPower(alpha=alpha, static=self.static, gamma=self.gamma)

    def __repr__(self) -> str:
        g = "" if self.gamma == 1.0 else f"{self.gamma:g}·"
        return f"PolynomialPower(p(f) = {g}f^{self.alpha:g} + {self.static:g})"


def energy_per_work(model: PowerModel, f):
    """Energy per unit of work for an arbitrary :class:`PowerModel`."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    e = model.power(f) / f
    if e.ndim == 0:
        return float(e)
    return e
