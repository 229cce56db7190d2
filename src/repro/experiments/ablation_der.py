"""Ablation: what should heavy-subinterval shares be proportional to?

DESIGN.md's central design choice is Algorithm 2's weighting — the Desired
Execution Requirement.  This experiment swaps the weight function while
keeping everything else fixed (same proportional-with-cap allocator, same
packing, same frequency refinement):

* ``even``       — uniform shares (the paper's S^F1),
* ``work``       — proportional to total execution requirement ``C_i``,
* ``intensity``  — proportional to ``C_i/(D_i − R_i)``,
* ``der``        — Algorithm 2 (the paper's S^F2).

Reported as mean NEC per policy.  The expected outcome — DER wins because it
weighs by what the *unconstrained optimum* does locally, not by global task
size — is exactly the argument of §V-C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.tables import format_csv, format_table
from ..core.allocation import AllocationPlan, allocate_proportional
from ..core.scheduler import SubintervalScheduler
from ..optimal import solve_optimal
from .runner import PointSpec

__all__ = ["POLICIES", "DerAblationResult", "run"]

POLICIES: tuple[str, ...] = ("even", "work", "intensity", "der")


def _plan_for_policy(sch: SubintervalScheduler, policy: str) -> AllocationPlan:
    if policy == "even":
        return sch.plan("even")
    if policy == "der":
        return sch.plan("der")
    tl = sch.timeline
    tasks = sch.tasks
    if policy == "work":
        weights = {i: float(tasks.works[i]) for i in range(len(tasks))}
    elif policy == "intensity":
        weights = {i: float(tasks.intensities[i]) for i in range(len(tasks))}
    else:
        raise ValueError(f"unknown policy {policy!r}")

    x = np.zeros((len(tasks), len(tl)))
    for sub in tl:
        if sub.n_overlapping == 0:
            continue
        if sub.is_heavy(sch.m):
            alloc = allocate_proportional(sub, sch.m, weights)
            for tid, t in alloc.items():
                x[tid, sub.index] = t
        else:
            for tid in sub.task_ids:
                x[tid, sub.index] = sub.length
    plan = AllocationPlan(timeline=tl, m=sch.m, method=policy, x=x)
    plan.check()
    return plan


@dataclass(frozen=True)
class DerAblationResult:
    """Mean NEC per allocation policy."""

    policies: tuple[str, ...]
    mean_nec: dict[str, float]
    std_nec: dict[str, float]
    reps: int

    def format(self, precision: int = 4) -> str:
        """Text-table rendering."""
        rows = [
            [p, self.mean_nec[p], self.std_nec[p]] for p in self.policies
        ]
        return format_table(
            ["policy", "mean NEC", "std"],
            rows,
            precision=precision,
            title=f"Allocation-weight ablation ({self.reps} replications)",
        )

    def to_csv(self) -> str:
        """CSV rendering."""
        rows = [[p, self.mean_nec[p], self.std_nec[p]] for p in self.policies]
        return format_csv(["policy", "mean_nec", "std_nec"], rows)


def run(
    reps: int = 50,
    seed: int = 0,
    spec: PointSpec | None = None,
) -> DerAblationResult:
    """Evaluate all policies on a shared batch of random instances."""
    spec = spec or PointSpec(m=4, alpha=3.0, p0=0.1, n_tasks=20)
    necs: dict[str, list[float]] = {p: [] for p in POLICIES}
    ss = np.random.SeedSequence(seed)
    for child in ss.spawn(reps):
        rng = np.random.default_rng(child)
        tasks = spec.draw(rng)
        power = spec.power()
        sch = SubintervalScheduler(tasks, spec.m, power)
        opt = solve_optimal(tasks, spec.m, power)
        for policy in POLICIES:
            plan = _plan_for_policy(sch, policy)
            res = sch.final_from_plan(plan, kind=f"F[{policy}]")
            necs[policy].append(res.energy / opt.energy)
    return DerAblationResult(
        policies=POLICIES,
        mean_nec={p: float(np.mean(v)) for p, v in necs.items()},
        std_nec={p: float(np.std(v, ddof=1)) for p, v in necs.items()},
        reps=reps,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(reps=15).format())
