"""Discrete-frequency-aware scheduling: S^F1/S^F2 on real operating points.

§VI-C evaluates the continuous-frequency plans *post hoc* on the XScale
menu.  For deployment ("easy to be implemented in practical systems", §VI-D)
one wants the planner itself to emit operating-point frequencies.  This
module closes that loop:

1. run the continuous pipeline to get each task's available time ``A_i`` and
   planned frequency ``f_i = max{f_crit, C_i/A_i}``,
2. round each frequency **up** to the next operating point ``f_k ≥ f_i`` —
   the task then needs ``C_i/f_k ≤ A_i`` time, so it still fits into its
   allocated slots and every deadline met by the plan is met in execution,
3. fill the earliest available slots at ``f_k`` and emit a concrete
   :class:`~repro.core.schedule.Schedule` bound to the *discrete* power
   model, so the simulator replays it at measured table powers.

Tasks whose plan exceeds ``f_max`` are scheduled at ``f_max`` (completing as
much as physics allows inside their windows is the least-bad real-time
behaviour) and returned as deadline misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.discrete import DiscreteFrequencySet
from .allocation import AllocationMethod
from .schedule import Schedule
from .scheduler import SubintervalScheduler, fill_slots

__all__ = ["PracticalResult", "PracticalScheduler"]


@dataclass(frozen=True)
class PracticalResult:
    """A deployable discrete-frequency schedule.

    Attributes
    ----------
    schedule:
        Concrete schedule whose frequencies are all operating points and
        whose power model is the discrete menu (energy = table powers).
    frequencies:
        Chosen operating point per task (``f_max`` for missed tasks).
    missed_tasks:
        Tasks whose planned frequency exceeded ``f_max``.
    planned_frequencies:
        The continuous plan, for diagnosis.
    """

    schedule: Schedule
    frequencies: np.ndarray
    missed_tasks: tuple[int, ...]
    planned_frequencies: np.ndarray

    @property
    def energy(self) -> float:
        """Energy at measured operating-point powers."""
        return self.schedule.total_energy()

    @property
    def all_deadlines_met(self) -> bool:
        """True when no task required more than ``f_max``."""
        return not self.missed_tasks


class PracticalScheduler:
    """The subinterval pipeline targeting a discrete-frequency platform.

    Parameters
    ----------
    tasks, m:
        Instance definition.
    fset:
        The operating-point menu; must carry a continuous fit, which the
        planning stage uses (as §VI-C does).
    """

    def __init__(self, tasks, m: int, fset: DiscreteFrequencySet):
        if fset.continuous_fit is None:
            raise ValueError("fset must carry a continuous fit for planning")
        self.fset = fset
        self.planner = SubintervalScheduler(tasks, m, fset.continuous_fit)

    def schedule(self, method: AllocationMethod = "der") -> PracticalResult:
        """Plan, quantize, and emit a deployable schedule."""
        planner = self.planner
        tasks = planner.tasks
        plan = planner.plan(method)
        from .frequency import refine_frequencies

        assign = refine_frequencies(
            tasks.works, plan.available_times, planner.power
        )
        planned = np.asarray(assign.frequencies)

        q = self.fset.quantize_up(planned)
        chosen = q.frequencies.copy()
        chosen[~q.feasible] = self.fset.f_max
        missed = tuple(int(i) for i in np.flatnonzero(~q.feasible))

        used_times = tasks.works / chosen
        # a missed task cannot fit its work: cap at its available time so the
        # emitted schedule stays physically valid (it completes less work)
        used_times = np.minimum(used_times, plan.available_times)

        segments = fill_slots(planner._slots_flat(plan), used_times, chosen)
        # rebind to the discrete model so energy comes from the table
        schedule = Schedule(tasks, planner.m, self.fset, segments)
        return PracticalResult(
            schedule=schedule,
            frequencies=chosen,
            missed_tasks=missed,
            planned_frequencies=planned,
        )
