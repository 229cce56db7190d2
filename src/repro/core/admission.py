"""Admission control for aperiodic tasks under a frequency cap.

The paper's model allows unbounded frequencies, so *any* task set is
schedulable and admission is trivial.  Real platforms have an ``f_max``
(§VI-C), which turns admission into a real decision: a new task may be
accepted only if *some* collision-free schedule completes every committed
task within its window at frequencies ≤ ``f_max``.

That condition is exactly a flow-feasibility question on the subinterval
network: running everything at ``f_max`` minimizes each task's required
core-time ``C_i / f_max``, and a schedule with frequencies ≤ ``f_max``
exists **iff** those minimal demands are realizable
(:func:`repro.optimal.flow.realize_demands`).  So the admission test is
exact, not a heuristic — and on acceptance the controller quotes the
marginal energy of the updated S^F2 plan.

Under a cap the controller keeps the committed tasks' maximum flow alive
(:class:`~repro.optimal.flow.DemandFlow`): an arrival splits the columns
its release and deadline cut, adds its row and augments from there, so a
check costs a few residual-graph searches rather than a new max flow over
every committed task.

The controller is a thin driver over an incremental
:class:`~repro.core.incremental.ScheduleSession`: each accepted task is a
single ``add_task`` delta (recomputing only the subintervals its window
perturbs) instead of a full pipeline rebuild over every committed task.
The session's plan is bit-identical to the batch rebuild, so the marginal
energy quotes are unchanged; materializing the full updated
:class:`~repro.core.scheduler.SchedulingResult` is optional
(``materialize=False`` skips it for hot admit paths that only need the
verdict and the quote).

This is an extension module (the "easy to implement in practical systems"
direction of §VI-D), built entirely from the paper's substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import context as obs
from ..optimal.flow import DemandFlow, realize_demands
from ..power.models import PolynomialPower
from .incremental import ScheduleSession
from .scheduler import SchedulingResult
from .task import Task, TaskSet

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission test.

    ``touched_subintervals`` / ``total_subintervals`` report the delta cost
    of an accepted task — how many subinterval allocations the arrival
    actually perturbed out of the current plan's total (both 0 on reject).
    """

    accepted: bool
    reason: str
    marginal_energy: float | None = None  # energy delta of the S^F2 plan
    schedule: SchedulingResult | None = None  # updated plan when accepted
    touched_subintervals: int = 0
    total_subintervals: int = 0

    def __repr__(self) -> str:
        verdict = "ACCEPT" if self.accepted else "REJECT"
        extra = (
            f", ΔE={self.marginal_energy:.4g}"
            if self.marginal_energy is not None
            else ""
        )
        return f"AdmissionDecision({verdict}: {self.reason}{extra})"


class AdmissionController:
    """Keeps a committed task set schedulable under ``f_max``.

    Parameters
    ----------
    m:
        Number of cores.
    power:
        Continuous power model used for energy quotes.
    f_max:
        Hard frequency cap of the platform.  ``None`` disables the cap
        (everything is admissible, per the paper's ideal model).
    """

    def __init__(
        self,
        m: int,
        power: PolynomialPower,
        f_max: float | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if f_max is not None and f_max <= 0:
            raise ValueError("f_max must be positive")
        self.m = int(m)
        self.power = power
        self.f_max = f_max
        self._committed: list[Task] = []
        self._session = ScheduleSession(self.m, power, method="der")
        self._flow = DemandFlow(self.m)  # the committed tasks' max flow at f_max

    # -- inspection ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of committed tasks."""
        return len(self._committed)

    @property
    def committed(self) -> TaskSet | None:
        """The currently-admitted task set (None when empty)."""
        return TaskSet(self._committed) if self._committed else None

    @property
    def current_energy(self) -> float:
        """Energy of the current S^F2 plan over all committed tasks."""
        return self._session.energy

    @property
    def session(self) -> ScheduleSession:
        """The live incremental session holding the committed plan."""
        return self._session

    def is_schedulable(self, tasks: TaskSet) -> bool:
        """Exact schedulability test of an arbitrary set under the cap.

        Stateless: finds a max flow over ``tasks`` from an empty flow.
        Admission does not call it; :meth:`try_admit` augments its live
        flow.
        """
        if self.f_max is None:
            return True
        min_times = tasks.works / self.f_max
        if np.any(min_times > tasks.windows * (1 + 1e-12)):
            return False  # some task can't finish even running alone flat-out
        return realize_demands(tasks, self.m, min_times).feasible

    # -- admission --------------------------------------------------------------------

    def try_admit(self, task: Task, materialize: bool = True) -> AdmissionDecision:
        """Test ``task``; commit it and return the updated plan if it fits.

        ``materialize=False`` skips building the full
        :class:`~repro.core.scheduler.SchedulingResult` (the decision's
        ``schedule`` stays ``None``), leaving the accept path a pure delta
        update plus an energy quote.
        """
        flow = self._flow
        if self.f_max is not None:
            if task.work / self.f_max > task.window * (1 + 1e-12):
                return AdmissionDecision(
                    accepted=False,
                    reason=(
                        f"task needs frequency {task.intensity:.4g} > "
                        f"f_max={self.f_max:g} even in isolation"
                    ),
                )
            with obs.traced("admission.check") as sp:
                flow = flow.with_task(
                    task.release, task.deadline, task.work / self.f_max
                )
                fits = flow.feasible
                if sp is not None:
                    sp.set("accepted", fits)
                    sp.set("paths", flow.paths)
                    sp.set("tasks", len(flow))
                    sp.set("subintervals", flow.n_subintervals)
            if not fits:
                return AdmissionDecision(
                    accepted=False,
                    reason="no collision-free schedule at f_max fits all "
                    "committed tasks plus this one",
                )

        before = self._session.energy
        handle = self._session.add_task(task)
        stats = self._session.last_delta
        try:
            plan = self._session.result() if materialize else None
        except Exception:
            # materialization must never leave a half-committed plan behind
            self._session.remove_task(handle)
            raise
        self._committed.append(task)
        self._flow = flow
        return AdmissionDecision(
            accepted=True,
            reason="schedulable",
            marginal_energy=self._session.energy - before,
            schedule=plan,
            touched_subintervals=stats.touched if stats else 0,
            total_subintervals=stats.total if stats else 0,
        )

    def admit_all(self, tasks) -> list[AdmissionDecision]:
        """Greedily test a stream of tasks in order."""
        return [self.try_admit(t) for t in tasks]

    def reset(self) -> None:
        """Drop all committed tasks."""
        self._committed.clear()
        self._session = ScheduleSession(self.m, self.power, method="der")
        self._flow = DemandFlow(self.m)
