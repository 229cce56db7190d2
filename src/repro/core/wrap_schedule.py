"""Algorithm 1: collision-free packing inside one subinterval.

Given allocated available times ``t(τ)`` for the overlapping tasks of a
subinterval ``[a, b]`` with ``t(τ) ≤ b − a`` and ``Σ t(τ) ≤ m·(b − a)``, the
paper's Algorithm 1 is McNaughton's classic wrap-around rule: fill core 1
left-to-right, and when a task would spill past ``b``, put its tail on the
current core up to ``b`` and wrap its head to the start of the next core.
Because each ``t(τ) ≤ b − a``, the two pieces of a wrapped task can never
overlap in time, so no task runs on two cores at once; cores never hold two
tasks at once by construction.

The output is a list of at most ``n_j + m − 1`` slots ``(task_id, core,
start, end)``.  A wrapped task gets exactly two slots, everyone else one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = ["Slot", "PackedSlots", "wrap_schedule", "pack_matrix_flat"]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Slot:
    """An available-time slot assigned to a task within one subinterval."""

    task_id: int
    core: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Slot length."""
        return self.end - self.start


def wrap_schedule(
    start: float,
    end: float,
    allocations: Mapping[int, float] | Sequence[tuple[int, float]],
    m: int,
) -> list[Slot]:
    """Pack allocated times onto ``m`` cores with McNaughton wrap-around.

    Parameters
    ----------
    start, end:
        The subinterval boundaries ``[t_j, t_{j+1}]``.
    allocations:
        Mapping (or pair sequence) task-id → allocated time.  Zero
        allocations are skipped.  Order of iteration fixes the packing
        order; dict order is preserved.
    m:
        Number of cores.

    Raises
    ------
    ValueError
        If any allocation exceeds the subinterval length, or the total
        exceeds ``m·(end − start)`` (either makes collision-free packing
        impossible).
    """
    if end <= start:
        raise ValueError("subinterval must have positive length")
    if m < 1:
        raise ValueError("m must be >= 1")
    delta = end - start
    items = list(allocations.items()) if isinstance(allocations, Mapping) else list(allocations)

    total = 0.0
    for tid, t in items:
        if t < -_EPS:
            raise ValueError(f"negative allocation for task {tid}")
        if t > delta * (1 + 1e-9) + _EPS:
            raise ValueError(
                f"allocation {t} for task {tid} exceeds subinterval length {delta}"
            )
        total += max(t, 0.0)
    if total > m * delta * (1 + 1e-9) + _EPS:
        raise ValueError(
            f"total allocation {total} exceeds capacity m·Δ = {m * delta}"
        )

    slots: list[Slot] = []
    k = 0  # current core
    p = start  # earliest available time on core k
    for tid, t in items:
        t = min(max(float(t), 0.0), delta)
        if t <= _EPS:
            continue
        if p + t <= end + _EPS:
            # fits on the current core
            seg_end = min(p + t, end)
            slots.append(Slot(tid, k, p, seg_end))
            p = seg_end
            if end - p <= _EPS:
                k += 1
                p = start
        else:
            # wrap: tail [p, end] on core k, head [start, start+overflow] on k+1
            overflow = t - (end - p)
            if k + 1 >= m:
                raise ValueError(
                    "allocation does not fit on m cores (numerical overflow)"
                )
            slots.append(Slot(tid, k, p, end))
            slots.append(Slot(tid, k + 1, start, start + overflow))
            k += 1
            p = start + overflow
    return slots


@dataclass(frozen=True)
class PackedSlots:
    """All slots of an allocation matrix, as flat parallel arrays.

    This is the hot-path representation: one entry per slot, grouped by
    subinterval (``sub`` is nondecreasing) and in packing order within each
    subinterval, with a wrapped task's head entry immediately following its
    tail.  The scheduler consumes these arrays directly; materializing
    :class:`Slot` objects (:meth:`to_slot_lists`) is only needed at the
    list-based API boundary.
    """

    task: np.ndarray
    core: np.ndarray
    start: np.ndarray
    end: np.ndarray
    sub: np.ndarray
    n_subintervals: int

    def __len__(self) -> int:
        return self.task.size

    @property
    def durations(self) -> np.ndarray:
        """Per-slot lengths."""
        return self.end - self.start

    def to_slot_lists(self) -> list[list[Slot]]:
        """One list of :class:`Slot` objects per subinterval."""
        if self.n_subintervals == 0:
            return []
        flat = list(
            map(
                Slot,
                self.task.tolist(),
                self.core.tolist(),
                self.start.tolist(),
                self.end.tolist(),
            )
        )
        cuts = np.searchsorted(self.sub, np.arange(1, self.n_subintervals)).tolist()
        out: list[list[Slot]] = []
        prev = 0
        for c in cuts:
            out.append(flat[prev:c])
            prev = c
        out.append(flat[prev:])
        return out


def pack_matrix_flat(
    boundaries: np.ndarray,
    x: np.ndarray,
    m: int,
    n_overlapping: np.ndarray,
    eps: float = _EPS,
) -> PackedSlots:
    """Batched slot construction for a whole allocation matrix at once.

    The cumulative-sum formulation of McNaughton's wrap-around rule: inside
    subinterval ``j`` the tasks (in ascending-id order, matching
    :func:`wrap_schedule`'s dict-order packing) occupy the half-open bands
    ``[a_i, b_i)`` of the unrolled core tape of length ``m·Δ_j``, where ``b``
    is the per-column running sum of allocations and ``a`` its shift.  Core
    indices and wrap points then fall out of a floor-division by ``Δ_j`` —
    no Python-level loop over tasks or subintervals at all: the dense pass
    computes the two cumsums, everything per-slot happens on the flat
    nonzero entries, and wrapped heads are spliced in with one
    :func:`np.insert`.

    Heavily overlapped columns (``n_overlapping[j] > m``) are wrap-packed;
    lightly overlapped ones give each active task its own core (rank order
    among the column's active tasks), exactly mirroring the per-subinterval
    scalar path.

    Parameters
    ----------
    boundaries:
        The ``J + 1`` subinterval boundaries ``t_1 < … < t_{N}``.
    x:
        ``(n_tasks, J)`` allocation matrix; entries ``≤ Δ_j`` with column
        totals ``≤ m·Δ_j`` (validated).  Entries ``≤ eps`` are skipped.
    m:
        Number of cores.
    n_overlapping:
        Per-column overlap counts ``n_j`` deciding heavy vs. light packing.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    boundaries = np.asarray(boundaries, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or boundaries.ndim != 1 or boundaries.size != x.shape[1] + 1:
        raise ValueError("boundaries must have one more entry than x has columns")
    starts = boundaries[:-1]
    ends = boundaries[1:]
    delta = ends - starts
    if np.any(delta <= 0):
        raise ValueError("subintervals must have positive length")
    counts = np.asarray(n_overlapping)

    # same feasibility validation as the scalar wrap_schedule, batched
    if np.any(x < -eps):
        raise ValueError("negative allocation")
    if np.any(x > delta[None, :] * (1 + 1e-9) + eps):
        raise ValueError("allocation exceeds subinterval length")
    if np.any(x.sum(axis=0) > m * delta * (1 + 1e-9) + eps):
        raise ValueError("total allocation exceeds capacity m·Δ")

    xa = np.clip(x, 0.0, delta[None, :])
    active = xa > eps
    xa = np.where(active, xa, 0.0)
    heavy = counts > m

    # band [a, b) on the unrolled tape of length m·Δ.  a is the shifted
    # cumsum (not b - xa): consecutive tasks then share the exact same float
    # at their common band edge, so adjacent slots on one core meet without
    # ulp-level overlap.  rank numbers the active tasks of a column for the
    # light one-core-each layout.
    rank = np.cumsum(active, axis=0) - 1
    b = np.cumsum(xa, axis=0)
    a = np.zeros_like(b)
    a[1:] = b[:-1]

    # nonzero of the transpose runs column-major: entries come out sorted by
    # (subinterval, task id), and within a column a is increasing in task
    # order, so this already IS the packing order.
    jj, ii = np.nonzero(active.T)
    d_e = delta[jj]
    s_e = starts[jj]
    e_e = ends[jj]
    a_e = a[ii, jj]
    b_e = b[ii, jj]
    xa_e = xa[ii, jj]
    h_e = heavy[jj]
    rank_e = rank[ii, jj]

    if np.any(~h_e & (rank_e >= m)):
        raise ValueError(
            "more than m active tasks in a lightly overlapped subinterval"
        )

    k0 = np.clip(np.floor((a_e + eps) / d_e).astype(np.int64), 0, m - 1)
    k1 = np.clip(np.floor((b_e - eps) / d_e).astype(np.int64), k0, m - 1)
    wrapped = h_e & (k1 > k0)

    # first slot (the only one for unwrapped entries); light columns snap
    # full-length allocations exactly to the subinterval boundaries
    full = xa_e >= d_e - eps
    start1 = np.where(h_e, s_e + np.maximum(a_e - k0 * d_e, 0.0), s_e)
    end1 = np.where(
        h_e,
        np.where(wrapped, e_e, np.minimum(s_e + (b_e - k0 * d_e), e_e)),
        np.where(full, e_e, s_e + xa_e),
    )
    core1 = np.where(h_e, k0, rank_e)
    # wrapped head on the next core, spliced in right after its tail
    e2 = np.minimum(s_e + (b_e - k1 * d_e), e_e)
    head = wrapped & (e2 - s_e > eps)
    pos = np.flatnonzero(head)
    if pos.size:
        ins = pos + 1
        task = np.insert(ii, ins, ii[pos])
        core = np.insert(core1, ins, k1[pos])
        start = np.insert(start1, ins, s_e[pos])
        end = np.insert(end1, ins, e2[pos])
        sub = np.insert(jj, ins, jj[pos])
    else:
        task, core, start, end, sub = ii, core1, start1, end1, jj
    return PackedSlots(task, core, start, end, sub, int(delta.size))

