"""Discrete-frequency platform model (paper §VI-C).

Practical cores expose a finite menu of operating points instead of a
continuous frequency range.  The paper handles this by (1) fitting a
continuous model to the published table for *planning*, then (2) rounding
each planned frequency **up** to the next available operating point for
*execution* — rounding up preserves deadlines; if even the highest point is
too slow, the task misses its deadline (the miss probabilities reported for
Fig. 11).

:class:`DiscreteFrequencySet` packages the operating points together with the
measured powers and an optional continuous fit, and implements quantization
and energy accounting at table powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import PolynomialPower, PowerModel

__all__ = ["DiscreteFrequencySet", "QuantizationResult"]


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of rounding planned frequencies onto the discrete menu.

    Attributes
    ----------
    frequencies:
        The chosen operating points (``nan`` where infeasible).
    feasible:
        Boolean mask; False where the planned frequency exceeds ``f_max``
        (the task would miss its deadline even at full speed).
    """

    frequencies: np.ndarray
    feasible: np.ndarray

    @property
    def miss_count(self) -> int:
        """Number of infeasible (deadline-missing) entries."""
        return int((~self.feasible).sum())

    @property
    def miss_any(self) -> bool:
        """True when at least one entry is infeasible."""
        return bool((~self.feasible).any())


@dataclass(frozen=True)
class DiscreteFrequencySet(PowerModel):
    """A finite set of operating points ``(f_k, p_k)``.

    ``power`` interpolates the *measured* table at its operating points and
    raises between them (querying power at a non-operating frequency is a
    modelling error unless ``strict=False``, in which case the continuous fit
    is consulted).
    """

    frequencies: np.ndarray
    powers: np.ndarray
    continuous_fit: PolynomialPower | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=np.float64)
        p = np.asarray(self.powers, dtype=np.float64)
        if f.ndim != 1 or p.shape != f.shape:
            raise ValueError("frequencies and powers must be equal-length 1-D arrays")
        if len(f) < 1:
            raise ValueError("need at least one operating point")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(f <= 0) or np.any(p < 0):
            raise ValueError("frequencies must be positive and powers nonnegative")
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "powers", p)

    # -- PowerModel interface ----------------------------------------------------

    def power(self, f):
        """Power at frequency ``f``.

        Exact table lookup at operating points; elsewhere fall back to the
        continuous fit (or raise when ``strict``).
        """
        f = np.asarray(f, dtype=np.float64)
        idx = np.searchsorted(self.frequencies, f)
        idx_clip = np.clip(idx, 0, len(self.frequencies) - 1)
        at_point = np.isclose(self.frequencies[idx_clip], f, rtol=1e-12, atol=1e-12)
        if np.all(at_point):
            out = self.powers[idx_clip]
            return float(out) if out.ndim == 0 else out
        if self.strict or self.continuous_fit is None:
            raise ValueError(
                "power queried at a non-operating frequency; provide a "
                "continuous_fit or quantize first"
            )
        fitted = self.continuous_fit.power(f)
        out = np.where(at_point, self.powers[idx_clip], fitted)
        return float(out) if out.ndim == 0 else out

    def critical_frequency(self) -> float:
        """Operating point with minimal energy per unit work."""
        per_work = self.powers / self.frequencies
        return float(self.frequencies[int(np.argmin(per_work))])

    # -- discrete-platform specifics ----------------------------------------------

    @property
    def f_min(self) -> float:
        """Lowest operating frequency."""
        return float(self.frequencies[0])

    @property
    def f_max(self) -> float:
        """Highest operating frequency."""
        return float(self.frequencies[-1])

    def __len__(self) -> int:
        return len(self.frequencies)

    def quantize_up(self, planned) -> QuantizationResult:
        """Round planned frequencies up to the next operating point.

        Rounding up can only shorten executions, so any deadline met by the
        plan is met by the quantized schedule.  Planned frequencies above
        ``f_max`` are infeasible (deadline miss); planned frequencies at or
        below ``f_min`` map to ``f_min``.
        """
        planned = np.atleast_1d(np.asarray(planned, dtype=np.float64))
        if np.any(planned <= 0):
            raise ValueError("planned frequencies must be positive")
        # Tolerate frequencies a hair above an operating point (float noise).
        adjusted = planned * (1.0 - 1e-12)
        idx = np.searchsorted(self.frequencies, adjusted, side="left")
        feasible = idx < len(self.frequencies)
        chosen = np.full(planned.shape, np.nan)
        chosen[feasible] = self.frequencies[idx[feasible]]
        return QuantizationResult(frequencies=chosen, feasible=feasible)

    def quantize_down(self, planned) -> np.ndarray:
        """Round planned frequencies down (for non-realtime best effort)."""
        planned = np.atleast_1d(np.asarray(planned, dtype=np.float64))
        adjusted = planned * (1.0 + 1e-12)
        idx = np.searchsorted(self.frequencies, adjusted, side="right") - 1
        idx = np.clip(idx, 0, len(self.frequencies) - 1)
        return self.frequencies[idx]

    def energy_at_points(self, work, planned) -> tuple[np.ndarray, QuantizationResult]:
        """Quantize-up and charge table power: ``p_k · work / f_k``.

        Returns ``(energies, quantization)``; infeasible entries get ``nan``
        energy so callers must inspect :attr:`QuantizationResult.feasible`.
        """
        work = np.atleast_1d(np.asarray(work, dtype=np.float64))
        q = self.quantize_up(planned)
        energies = np.full(work.shape, np.nan)
        ok = q.feasible
        if ok.any():
            fk = q.frequencies[ok]
            pk = self.power(fk)
            energies[ok] = np.asarray(pk) * work[ok] / fk
        return energies, q
