"""Ablation: the price of non-clairvoyance (online vs offline scheduling).

The paper's pipeline is offline.  The online variant re-plans at every
release with only the tasks revealed so far
(:class:`repro.core.online.OnlineSubintervalScheduler`).  This experiment
measures the online/offline energy ratio and the online NEC across task
counts — quantifying how much of S^F2's quality survives without future
knowledge (all deadlines are still met by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.tables import format_csv, format_table
from ..core.online import OnlineSubintervalScheduler
from ..core.scheduler import SubintervalScheduler
from ..optimal import solve_optimal
from .runner import PointSpec

__all__ = ["OnlineAblationResult", "run"]


@dataclass(frozen=True)
class OnlineAblationResult:
    """Mean NECs of offline S^F2 and its online counterpart."""

    task_counts: tuple[int, ...]
    offline_nec: np.ndarray
    online_nec: np.ndarray
    mean_replans: np.ndarray
    reps: int

    @property
    def online_premium(self) -> np.ndarray:
        """Energy ratio online/offline per task count."""
        return self.online_nec / self.offline_nec

    def format(self, precision: int = 4) -> str:
        """Text-table rendering."""
        rows = [
            [
                int(n),
                float(self.offline_nec[i]),
                float(self.online_nec[i]),
                float(self.online_premium[i]),
                float(self.mean_replans[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_table(
            ["n", "offline NEC", "online NEC", "premium", "mean replans"],
            rows,
            precision=precision,
            title=f"Online re-planning ablation ({self.reps} replications)",
        )

    def to_csv(self) -> str:
        """CSV rendering."""
        rows = [
            [
                int(n),
                float(self.offline_nec[i]),
                float(self.online_nec[i]),
                float(self.mean_replans[i]),
            ]
            for i, n in enumerate(self.task_counts)
        ]
        return format_csv(["n", "offline_nec", "online_nec", "mean_replans"], rows)


def run(
    reps: int = 30,
    seed: int = 0,
    task_counts: tuple[int, ...] = (10, 20, 30),
    m: int = 4,
) -> OnlineAblationResult:
    """Compare offline and online S^F2 across task counts."""
    offline = np.zeros(len(task_counts))
    online = np.zeros(len(task_counts))
    replans = np.zeros(len(task_counts))
    for i, n in enumerate(task_counts):
        spec = PointSpec(m=m, alpha=3.0, p0=0.1, n_tasks=int(n))
        ss = np.random.SeedSequence(seed + i)
        for child in ss.spawn(reps):
            rng = np.random.default_rng(child)
            tasks = spec.draw(rng)
            power = spec.power()
            opt = solve_optimal(tasks, m, power)
            off = SubintervalScheduler(tasks, m, power).final("der")
            on = OnlineSubintervalScheduler(tasks, m, power).run()
            offline[i] += off.energy / opt.energy
            online[i] += on.energy / opt.energy
            replans[i] += on.replans
        offline[i] /= reps
        online[i] /= reps
        replans[i] /= reps
    return OnlineAblationResult(
        task_counts=tuple(int(n) for n in task_counts),
        offline_nec=offline,
        online_nec=online,
        mean_replans=replans,
        reps=reps,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(reps=10).format())
