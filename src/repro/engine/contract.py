"""The engine's typed contract: platform, request, and normalized result.

:class:`Platform` pins down everything about the *hardware* an instance is
solved for; :class:`SolveRequest` pairs it with a task set and free-form
solver options; :class:`SolveResult` is the one shape every registered
solver returns, so frontends (CLI, HTTP service, experiments, analysis)
never need solver-specific unpacking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from ..core.task import TaskSet
from ..power.discrete import DiscreteFrequencySet
from ..power.models import PolynomialPower

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.schedule import Schedule
    from ..core.scheduler import SubintervalScheduler
    from ..sim.validate import Violation

__all__ = ["Platform", "SolveRequest", "SolveResult"]

_EMPTY: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class Platform:
    """A frozen description of the machine schedules are produced for.

    Parameters
    ----------
    m:
        Number of homogeneous DVFS cores.
    power:
        Continuous power model ``p(f) = γ·f^α + p₀``.
    fset:
        Optional discrete operating-point menu (practical processors).
        Solvers that need one (``practical``) fall back to the paper's
        Intel XScale table when this is ``None``.
    f_max:
        Optional hard frequency cap, honored by the capped exact solvers
        and surfaced to admission control.
    """

    m: int = 4
    power: PolynomialPower = field(default_factory=PolynomialPower)
    fset: DiscreteFrequencySet | None = None
    f_max: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.f_max is not None and self.f_max <= 0:
            raise ValueError(f"f_max must be positive, got {self.f_max}")

    @classmethod
    def from_params(
        cls,
        m: int = 4,
        alpha: float = 3.0,
        static: float = 0.0,
        gamma: float = 1.0,
        f_max: float | None = None,
    ) -> "Platform":
        """Build a platform from the scalar knobs every frontend exposes."""
        return cls(
            m=m,
            power=PolynomialPower(alpha=alpha, static=static, gamma=gamma),
            f_max=f_max,
        )

    def signature(self) -> tuple:
        """Hashable identity of the continuous platform (used for fusion/caching)."""
        return (
            int(self.m),
            float(self.power.alpha),
            float(self.power.static),
            float(self.power.gamma),
            None if self.f_max is None else float(self.f_max),
        )


@dataclass(frozen=True)
class SolveRequest:
    """One instance to solve: a task set on a platform, plus solver options.

    ``options`` is free-form per solver (e.g. ``stage="intermediate"`` for
    the subinterval solvers).  The request also carries a private scratch
    dict so several solvers invoked on the *same* request can share
    expensive intermediates (today: the :class:`SubintervalScheduler`,
    whose timeline and ideal solution are reused across the even/DER and
    intermediate/final variants — this is what keeps the experiments
    runner as fast as the hand-wired code it replaced).
    """

    tasks: TaskSet
    platform: Platform = field(default_factory=Platform)
    options: Mapping[str, Any] = field(default_factory=lambda: _EMPTY)
    _scratch: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def scheduler(self) -> "SubintervalScheduler":
        """The shared subinterval pipeline for this request (built once)."""
        sch = self._scratch.get("scheduler")
        if sch is None:
            from ..core.scheduler import SubintervalScheduler

            sch = SubintervalScheduler(
                self.tasks, self.platform.m, self.platform.power
            )
            self._scratch["scheduler"] = sch
        return sch


@dataclass(frozen=True)
class SolveResult:
    """The normalized outcome every registered solver returns.

    Attributes
    ----------
    solver:
        Canonical registry name that produced this result.
    kind:
        Human-readable schedule family (``"S^F2"``, ``"online"``,
        ``"optimal"``, ``"EDF"``, …) matching the paper's nomenclature.
    energy:
        Analytic energy of the produced schedule (the number every figure
        plots; for exact solvers this is the optimal objective value).
    schedule:
        Concrete collision-free schedule, replayable by :mod:`repro.sim`.
        ``None`` only when a solver cannot materialize one.
    feasible:
        True when every deadline is met *and* the post-solve validation
        hook found no invariant violations.
    deadline_misses:
        Task ids the solver itself reports as missing their deadlines
        (baselines with soft deadlines, capped practical schedules).
    wall_time_s:
        Wall-clock seconds spent inside the solver (filled by the
        registry, not the solver).
    violations:
        Structured invariant violations from the shared validation hook
        (empty when the hook is skipped or the schedule is clean).
    degraded_from:
        Canonical name of the solver the caller *asked for* when this
        result was instead produced by a fallback (the requested solver
        hung past its deadline or crashed).  ``None`` on the normal path;
        when set, :attr:`solver` names the fallback that actually ran.
    degraded_reason:
        One-line explanation of the degradation (``"timeout after 2s"``,
        ``"ValueError: …"``); ``None`` unless :attr:`degraded_from` is set.
    extras:
        Solver-specific metadata (``replans``, ``iterations``,
        ``frequencies`` …) that frontends may surface but never require.
    """

    solver: str
    kind: str
    energy: float
    schedule: "Schedule | None"
    feasible: bool = True
    deadline_misses: tuple[int, ...] = ()
    wall_time_s: float = 0.0
    violations: tuple["Violation", ...] = ()
    degraded_from: str | None = None
    degraded_reason: str | None = None
    extras: Mapping[str, Any] = field(default_factory=lambda: _EMPTY)

    @property
    def degraded(self) -> bool:
        """True when a fallback solver produced this result."""
        return self.degraded_from is not None

    def __repr__(self) -> str:
        flag = "" if self.feasible else ", INFEASIBLE"
        if self.degraded:
            flag += f", degraded from {self.degraded_from}"
        return (
            f"SolveResult({self.solver}, {self.kind}, "
            f"E={self.energy:.6g}{flag})"
        )
