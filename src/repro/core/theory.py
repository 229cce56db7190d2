"""The paper's analytical guarantees as executable certificates.

§V proves a chain of relations between the schedules:

    ``E^(O) ≤ E^F1 ≤ E^I1 ≤ (n_max/m)^{α−1} · E^O``  (even allocation)
    ``E^F2 ≤ E^I2``                                    (DER-based)

plus the unconditional lower bounds ``E^(O) ≥ E^O`` *when p₀ = 0* (with
static power the unlimited-core relaxation can exceed the constrained
optimum only through its laxer structure — the paper notes ``E^O`` may be on
either side of ``E^(O)`` in general, which :func:`certify_instance` records
rather than asserts).

:func:`certify_instance` evaluates every relation on a concrete instance
and returns a machine-checkable report; the test-suite and benchmarks run it
on randomized instances so the implementation is continuously held to the
paper's theorems.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..power.models import PolynomialPower
from .scheduler import SubintervalScheduler
from .task import TaskSet

__all__ = ["BoundReport", "intermediate_even_bound", "certify_instance"]


def intermediate_even_bound(scheduler: SubintervalScheduler) -> float:
    """§V-B's upper bound on the even intermediate schedule.

    ``E^I1 ≤ (n_max/m)^{α−1} · E^O`` with
    ``n_max = max{m, max_j n_j}``.
    """
    m = scheduler.m
    n_max = max(scheduler.timeline.max_overlap(), m)
    alpha = scheduler.power.alpha
    return (n_max / m) ** (alpha - 1.0) * scheduler.ideal_energy


@dataclass(frozen=True)
class BoundReport:
    """Every §V relation evaluated on one instance.

    All fields named ``holds_*`` must be True on a correct implementation;
    ``ideal_below_optimal`` is informational (guaranteed only at p₀ = 0).
    """

    energies: dict[str, float]
    ideal_energy: float
    optimal_energy: float | None
    even_bound: float
    holds_refinement_even: bool
    holds_refinement_der: bool
    holds_even_bound: bool
    holds_optimal_lower: bool | None
    ideal_below_optimal: bool | None

    @property
    def all_guaranteed_hold(self) -> bool:
        """True when every relation the paper proves holds on this instance."""
        checks = [
            self.holds_refinement_even,
            self.holds_refinement_der,
            self.holds_even_bound,
        ]
        if self.holds_optimal_lower is not None:
            checks.append(self.holds_optimal_lower)
        return all(checks)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "OK" if self.all_guaranteed_hold else "VIOLATED"
        parts = [f"{k}={v:.4f}" for k, v in self.energies.items()]
        return f"[{status}] " + "  ".join(parts) + f"  bound={self.even_bound:.4f}"


def certify_instance(
    tasks: TaskSet,
    m: int,
    power: PolynomialPower,
    optimal_energy: float | None = None,
    rtol: float = 1e-9,
    solver_rtol: float = 1e-6,
) -> BoundReport:
    """Evaluate all §V relations on one instance.

    Pass ``optimal_energy`` (from :func:`repro.optimal.solve_optimal`) to
    additionally certify that the exact optimum lower-bounds every heuristic;
    omit it to check only the internal relations (cheap).

    ``rtol`` governs the *analytic* relations (exact up to float noise);
    ``solver_rtol`` governs comparisons against ``optimal_energy``, whose
    accuracy is bounded by the solver's certified duality gap, not by float
    precision.
    """
    sch = SubintervalScheduler(tasks, m, power)
    results = sch.run_all()
    energies = {k: r.energy for k, r in results.items()}
    bound = intermediate_even_bound(sch)

    tol = lambda x: abs(x) * rtol + rtol  # noqa: E731 - local helper

    holds_refinement_even = energies["F1"] <= energies["I1"] + tol(energies["I1"])
    holds_refinement_der = energies["F2"] <= energies["I2"] + tol(energies["I2"])
    holds_even_bound = energies["I1"] <= bound + tol(bound)

    holds_optimal_lower: bool | None = None
    ideal_below_optimal: bool | None = None
    if optimal_energy is not None:
        stol = lambda x: abs(x) * solver_rtol + solver_rtol  # noqa: E731
        holds_optimal_lower = all(
            optimal_energy <= e + stol(e) for e in energies.values()
        )
        ideal_below_optimal = (
            sch.ideal_energy <= optimal_energy + stol(optimal_energy)
        )

    return BoundReport(
        energies=energies,
        ideal_energy=sch.ideal_energy,
        optimal_energy=optimal_energy,
        even_bound=bound,
        holds_refinement_even=holds_refinement_even,
        holds_refinement_der=holds_refinement_der,
        holds_even_bound=holds_even_bound,
        holds_optimal_lower=holds_optimal_lower,
        ideal_below_optimal=ideal_below_optimal,
    )
