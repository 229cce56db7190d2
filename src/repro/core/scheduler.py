"""The paper's subinterval-based scheduling pipeline (§V).

:class:`SubintervalScheduler` wires together the whole method:

1. build the :class:`~repro.core.intervals.Timeline`,
2. solve the unlimited-core ideal case ``S^O`` in closed form,
3. allocate available time per subinterval (*even* or *DER-based*),
4. pack heavy subintervals collision-free with Algorithm 1,
5. produce the **intermediate** schedule (``S^I1`` / ``S^I2``: keep the
   ideal per-subinterval work, raising frequency where the allocation is
   shorter than the ideal usage) and the **final** schedule (``S^F1`` /
   ``S^F2``: one refined frequency per task over its total available time).

Every product is returned both as an analytic energy value and as a concrete
:class:`~repro.core.schedule.Schedule` that the simulator can replay and the
validator can check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..power.models import PolynomialPower
from .allocation import AllocationMethod, AllocationPlan, build_allocation_plan
from .frequency import refine_frequencies
from .ideal import IdealSolution, solve_ideal
from .intervals import Timeline
from .schedule import Schedule, Segment
from .task import TaskSet
from .wrap_schedule import PackedSlots, pack_matrix_flat

__all__ = [
    "SchedulingResult",
    "SubintervalScheduler",
    "fill_slots",
    "schedule_taskset",
]

_EPS = 1e-12


@dataclass(frozen=True)
class SchedulingResult:
    """One produced schedule with its analytic energy.

    ``kind`` is one of ``"I1"``, ``"F1"``, ``"I2"``, ``"F2"`` matching the
    paper's names (1 = even allocation, 2 = DER-based; I = intermediate,
    F = final).
    """

    kind: str
    energy: float
    plan: AllocationPlan
    schedule: Schedule
    frequencies: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"SchedulingResult(S^{self.kind}, E={self.energy:.6g})"


class SubintervalScheduler:
    """End-to-end scheduler for one task set on one platform.

    Parameters
    ----------
    tasks:
        The aperiodic task set.
    m:
        Number of homogeneous DVFS cores.
    power:
        Continuous power model ``p(f) = γ f^α + p₀``.
    timeline:
        Optional prebuilt :class:`~repro.core.intervals.Timeline` for
        ``tasks``.  The timeline depends only on the task set — not on
        ``m`` or ``power`` — so sweeps over core counts (and any caller
        that already built one) should construct it once and share it.
    """

    def __init__(
        self,
        tasks: TaskSet,
        m: int,
        power: PolynomialPower,
        timeline: Timeline | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.tasks = tasks
        self.m = int(m)
        self.power = power
        self.timeline = Timeline(tasks) if timeline is None else timeline
        self._plans: dict[str, AllocationPlan] = {}

    # -- shared building blocks ----------------------------------------------------

    @cached_property
    def ideal(self) -> IdealSolution:
        """The unlimited-core closed-form optimum ``S^O``."""
        return solve_ideal(self.tasks, self.power)

    @cached_property
    def ideal_energy(self) -> float:
        """``E^O`` — the "NEC of Idl" reference value."""
        return self.ideal.total_energy

    def plan(self, method: AllocationMethod) -> AllocationPlan:
        """The available-time matrix for the requested allocation policy."""
        plan = self._plans.get(method)
        if plan is None:
            ideal = self.ideal if method == "der" else None
            plan = build_allocation_plan(self.timeline, self.m, method, ideal=ideal)
            self._plans[method] = plan
        return plan

    # -- slot construction -----------------------------------------------------------

    def _slots_flat(self, plan: AllocationPlan) -> PackedSlots:
        """Collision-free slots for the plan's allocations, as flat arrays.

        One batched cumulative-sum pass (:func:`pack_matrix_flat`): heavy
        subintervals get Algorithm 1's wrap packing, light subintervals give
        each overlapping task its own core.  This is the production hot
        path — no :class:`Slot` objects are materialized.
        """
        return pack_matrix_flat(
            self.timeline.boundaries, plan.x, self.m, self.timeline.overlap_counts
        )

    # -- final schedules (S^F1 / S^F2) --------------------------------------------------

    def final(self, method: AllocationMethod) -> SchedulingResult:
        """Build the final schedule for the given allocation method.

        The per-task frequency is ``max{f_crit, C_i/A_i}``; each task then
        fills its earliest available slots until its work is done, leaving
        the rest of its available time idle (cores sleep).
        """
        plan = self.plan(method)
        return self._final(plan, "F1" if method == "even" else "F2")

    def final_from_plan(self, plan: AllocationPlan, kind: str = "F*") -> SchedulingResult:
        """Final schedule from an externally-built allocation plan.

        Used by the allocation-policy ablations: any feasible plan over this
        scheduler's timeline (e.g. work- or intensity-proportional shares)
        goes through the same frequency refinement and packing as F1/F2.
        """
        if plan.timeline is not self.timeline:
            if plan.timeline.tasks != self.tasks or plan.m != self.m:
                raise ValueError("plan belongs to a different instance")
            # same tasks and m do not imply the same decomposition (e.g. a
            # refined timeline with extra boundaries): subinterval indices
            # must line up or plan.x would be read against the wrong columns
            if not np.array_equal(
                plan.timeline.boundaries, self.timeline.boundaries
            ):
                raise ValueError(
                    "plan timeline uses a different subinterval decomposition "
                    "than this scheduler"
                )
        plan.check()
        return self._final(plan, kind)

    def _final(self, plan: AllocationPlan, kind: str) -> SchedulingResult:
        assign = refine_frequencies(self.tasks.works, plan.available_times, self.power)
        segments = fill_slots(
            self._slots_flat(plan), assign.used_times, assign.frequencies
        )
        return SchedulingResult(
            kind=kind,
            energy=assign.total_energy,
            plan=plan,
            schedule=Schedule(self.tasks, self.m, self.power, segments),
            frequencies=assign.frequencies,
        )

    # -- intermediate schedules (S^I1 / S^I2) ----------------------------------------------

    def intermediate(self, method: AllocationMethod) -> SchedulingResult:
        """Build the intermediate schedule for the given allocation method.

        Keeps the ideal per-subinterval work ``o[i,j]·f_i^O``: wherever the
        allocated time ``x[i,j]`` is shorter than the ideal usage ``o[i,j]``,
        the frequency is raised to ``o[i,j]·f_i^O / x[i,j]`` so the same work
        still completes inside the subinterval.
        """
        plan = self.plan(method)
        o = self.ideal.subinterval_times(self.timeline)  # ideal time per (i, j)
        f_ideal = self.ideal.frequencies

        n, J = o.shape
        time_used = np.where(o <= plan.x, o, plan.x)
        work = o * f_ideal[:, None]
        # relative threshold: float dust from boundary arithmetic must not
        # count as schedulable work (it would divide by a zero allocation)
        active = work > 1e-9 * self.tasks.works[:, None]
        if np.any(active & (time_used <= _EPS)):
            bad = np.argwhere(active & (time_used <= _EPS))
            raise AssertionError(
                f"intermediate schedule starved entries {bad[:5].tolist()}: "
                "allocation gave zero time where the ideal schedule works"
            )
        freq = np.zeros_like(o)
        freq[active] = work[active] / time_used[active]

        energy = float(
            np.sum(np.asarray(self.power.power(freq[active])) * time_used[active])
        )

        segments = self._intermediate_segments(plan, time_used, freq, active)
        schedule = Schedule(self.tasks, self.m, self.power, segments)
        kind = "I1" if method == "even" else "I2"
        return SchedulingResult(kind=kind, energy=energy, plan=plan, schedule=schedule)

    def _intermediate_segments(
        self,
        plan: AllocationPlan,
        time_used: np.ndarray,
        freq: np.ndarray,
        active: np.ndarray,
    ) -> list[Segment]:
        """Concrete segments for an intermediate schedule.

        Within each subinterval the *used* times (≤ allocated times) are
        packed with Algorithm 1 directly, so feasibility follows from the
        allocation's feasibility.  Packing runs through the same batched
        cumulative-sum pass as :meth:`_slots_flat`.
        """
        used = np.where(active, time_used, 0.0)
        ps = pack_matrix_flat(
            self.timeline.boundaries, used, self.m, self.timeline.overlap_counts
        )
        keep = ps.durations > _EPS
        task = ps.task[keep]
        return list(
            map(
                Segment,
                task.tolist(),
                ps.core[keep].tolist(),
                ps.start[keep].tolist(),
                ps.end[keep].tolist(),
                freq[task, ps.sub[keep]].tolist(),
            )
        )

    # -- one-call convenience --------------------------------------------------------------

    def run_all(self) -> dict[str, SchedulingResult]:
        """All four schedules keyed by the paper's names I1, F1, I2, F2."""
        return {
            "I1": self.intermediate("even"),
            "F1": self.final("even"),
            "I2": self.intermediate("der"),
            "F2": self.final("der"),
        }


def fill_slots(
    ps: PackedSlots,
    used_times: np.ndarray,
    frequencies: np.ndarray,
    before: float | None = None,
) -> list[Segment]:
    """Cut each task's earliest slots down to its used time, batched.

    Per task (slots in time order) the kept prefix is a cumulative-sum
    cut: slot ``k`` contributes ``clip(used − prefix_k, 0, duration_k)``.
    ``before`` drops the segments starting at or after it.  Segments come
    back in :class:`Schedule` order, ``(start, core, task_id)``: the online
    driver subtracts executed work in this order, and its bit-equality with
    a batch rebuild depends on it.
    """
    if len(ps) == 0:
        return []
    n = used_times.size
    order = np.lexsort((ps.start, ps.task))
    t = ps.task[order]
    start = ps.start[order]
    dur = ps.durations[order]
    cum = np.cumsum(dur)
    first = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    base = np.zeros(n)
    base[t[first]] = cum[first] - dur[first]
    prefix = cum - dur - base[t]  # slot time before this slot, per task
    take = np.clip(used_times[t] - prefix, 0.0, dur)

    placed = np.bincount(t, weights=take, minlength=n)
    short = used_times - placed
    bad = short > 1e-6 * np.maximum(used_times, 1.0)
    if np.any(bad):
        tid = int(np.flatnonzero(bad)[0])
        raise AssertionError(
            f"task {tid}: could not place {short[tid]} of its execution "
            "time into available slots (allocation bug)"
        )

    keep = take > _EPS
    if before is not None:
        keep &= start < before
    t, core, start = t[keep], ps.core[order][keep], start[keep]
    end = start + take[keep]
    seg = np.lexsort((t, core, start))
    t = t[seg]
    return list(
        map(
            Segment,
            t.tolist(),
            core[seg].tolist(),
            start[seg].tolist(),
            end[seg].tolist(),
            frequencies[t].tolist(),
        )
    )


def schedule_taskset(
    tasks: TaskSet,
    m: int,
    power: PolynomialPower,
    method: AllocationMethod = "der",
) -> SchedulingResult:
    """One-shot convenience: final schedule of ``tasks`` on ``m`` cores.

    ``method="der"`` yields the paper's recommended ``S^F2``.
    """
    return SubintervalScheduler(tasks, m, power).final(method)
