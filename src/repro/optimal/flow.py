"""Flow-based demand feasibility and realization (the related-work machinery).

The combinatorial algorithms of the paper's related work ([2], [4]) reduce
multiprocessor speed scheduling to maximum flows on the bipartite
task/subinterval network:

    source ──(A_i)──► task_i ──(Δ_j, if covered)──► subinterval_j ──(m·Δ_j)──► sink

A demand vector ``A`` (total execution time per task) is *feasible* iff the
max flow saturates all source edges; the flow values on the middle edges are
then exactly a valid ``x_{i,j}`` matrix, which Algorithm 1 turns into a
collision-free schedule.  This gives a combinatorial realization path for
any solver's ``A``: the capped solver's phase-1 start, the stateless
admission test, and users asking "could I give these tasks these
durations at all?" without running an optimizer.

One kernel finds every maximum flow here: :func:`_augment`, a vectorised
augmenting-path search over the ``x`` matrix itself.
:func:`realize_demands` runs it once from an empty flow;
:class:`DemandFlow` keeps one flow alive across task arrivals, so a stream
of feasibility tests (admission control) augments the previous flow
instead of solving a new max flow per arrival.  The test suite checks
both against an independent Dinic (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.intervals import Timeline
from ..core.task import TaskSet

__all__ = [
    "DemandFlow",
    "DemandRealization",
    "realize_demands",
]

#: residual capacities at or below this count as saturated
_EPS = 1e-12


def _saturated(flow: float, demand: float, rtol: float = 1e-9) -> bool:
    """The saturation test: does a flow of ``flow`` meet ``demand``?"""
    return flow >= demand * (1 - rtol) - 1e-12


@dataclass(frozen=True)
class DemandRealization:
    """Outcome of the flow computation for a demand vector."""

    feasible: bool
    x: np.ndarray  # (n, J) realized execution times (partial if infeasible)
    shortfall: np.ndarray  # per-task unmet demand
    bottleneck_subintervals: tuple[int, ...]  # min-cut side (when infeasible)


def realize_demands(
    tasks: TaskSet, m: int, demands, rtol: float = 1e-9
) -> DemandRealization:
    """Max-flow realization of per-task total execution times.

    Parameters
    ----------
    tasks, m:
        Instance definition.
    demands:
        Per-task desired total execution time ``A_i`` (each must not exceed
        the task's window — no single machine can give more).
    rtol:
        Relative tolerance on the saturation test.

    Returns
    -------
    DemandRealization
        With ``x`` the realized times.  When infeasible, ``x`` is a maximal
        partial realization, ``shortfall`` says which tasks are short, and
        ``bottleneck_subintervals`` lists the congested subintervals on the
        min-cut (the "heavily loaded" region blocking the demand).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    demands = np.asarray(demands, dtype=np.float64)
    if demands.shape != (len(tasks),):
        raise ValueError("demands must have one entry per task")
    if np.any(demands < 0):
        raise ValueError("demands must be nonnegative")
    if np.any(demands > tasks.windows * (1 + 1e-9)):
        raise ValueError("a demand exceeds its task's window (never realizable)")

    timeline = Timeline(tasks)
    x = np.zeros((len(tasks), len(timeline)))
    _, reached = _augment(x, timeline.coverage, timeline.lengths, m, demands)
    feasible = _saturated(float(x.sum()), float(demands.sum()), rtol)
    # a subinterval is congested when its sink edge lies on the min cut,
    # i.e. the last (failed) search still reached it in the residual graph
    bottleneck = () if feasible else tuple(np.flatnonzero(reached).tolist())
    return DemandRealization(
        feasible=feasible,
        x=x,
        shortfall=np.maximum(demands - x.sum(axis=1), 0.0),
        bottleneck_subintervals=bottleneck,
    )


def _fit_column(y: np.ndarray, length: float, m: int) -> np.ndarray:
    """Clamp one column's task flows to ``length`` each and ``m·length`` in sum."""
    y = np.clip(y, 0.0, length)
    cap = m * length
    total = y.sum()
    if total > cap:
        y = y * (cap / total)
        while y.sum() > cap:  # the rescaled sum may still round one ulp over
            y = np.nextafter(y, 0.0)
    return y


def _cut(
    b: np.ndarray, cov: np.ndarray, x: np.ndarray, v: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Insert boundary ``v``: split the column it cuts, flows in proportion."""
    k = int(np.searchsorted(b, v))
    if k < b.size and b[k] == v:
        return b, cov, x
    new_b = np.insert(b, k, v)
    if b.size == 0:
        return new_b, cov, x  # a single point spans no column yet
    if k == 0 or k == b.size:
        # outside the horizon: an empty column before or after it
        j = 0 if k == 0 else b.size - 1
        return (
            new_b,
            np.insert(cov, j, False, axis=1),
            np.insert(x, j, 0.0, axis=1),
        )
    j = k - 1  # v cuts column j = [a, c] into [a, v] and [v, c]
    a, c = b[j], b[k]
    col = x[:, j]
    left = _fit_column(col * ((v - a) / (c - a)), v - a, m)
    right = _fit_column(col - left, c - v, m)
    x = np.insert(x, k, right, axis=1)
    x[:, j] = left
    return new_b, np.insert(cov, k, cov[:, j], axis=1), x


def _augment(
    x: np.ndarray, cov: np.ndarray, lengths: np.ndarray, m: int, demands: np.ndarray
) -> tuple[int, np.ndarray]:
    """Augment ``x`` in place to a maximum flow.

    Each round is one breadth-first search of the residual
    task/subinterval graph, from every task whose source edge is
    unsaturated to the nearest level of columns with sink capacity left;
    every path of that search tree into those columns is then pushed by
    the residual it still has.

    Returns the number of paths pushed and the columns the last search
    reached without finding sink capacity: the subinterval side of a
    minimum cut (none when every demand is met).
    """
    n, J = x.shape
    open_below = lengths - _EPS
    # source and sink residuals; a push changes them only at its two ends
    short = demands - x.sum(axis=1)
    spare = m * lengths - x.sum(axis=0)
    paths = 0
    while True:
        seen_t = short > _EPS
        if not seen_t.any():
            return paths, np.zeros(J, dtype=bool)
        seen_c = np.zeros(J, dtype=bool)
        via_c = np.full(n, -1)  # the column each task was reached from; -1: a start
        via_t = np.zeros(J, dtype=np.intp)  # the task each column was reached from
        frontier = np.flatnonzero(seen_t)
        ends = ()
        while frontier.size:
            fwd = cov[frontier] & (x[frontier] < open_below) & ~seen_c
            cols = np.flatnonzero(fwd.any(axis=0))
            if not cols.size:
                break
            via_t[cols] = frontier[fwd[:, cols].argmax(axis=0)]
            seen_c[cols] = True
            ends = cols[spare[cols] > _EPS].tolist()
            if ends:
                break
            back = (x[:, cols] > _EPS) & ~seen_t[:, None]
            frontier = np.flatnonzero(back.any(axis=1))
            via_c[frontier] = cols[back[frontier].argmax(axis=1)]
            seen_t[frontier] = True
        if not ends:
            return paths, seen_c
        unmet = int(np.count_nonzero(short > _EPS))
        for end in ends:
            # walk back to the start: +δ on forward edges, −δ on the
            # backward ones (column j returning flow it had from task i);
            # an earlier path of this round may have used up a shared edge
            i = int(via_t[end])
            forward, backward = [(i, end)], []
            delta = min(spare[end], lengths[end] - x[i, end])
            while delta > _EPS and via_c[i] >= 0:
                j = int(via_c[i])
                backward.append((i, j))
                delta = min(delta, x[i, j])
                i = int(via_t[j])
                forward.append((i, j))
                delta = min(delta, lengths[j] - x[i, j])
            delta = min(delta, short[i])
            if delta <= _EPS:
                continue
            for p, j in forward:
                x[p, j] = min(x[p, j] + delta, lengths[j])
            for p, j in backward:
                x[p, j] = max(x[p, j] - delta, 0.0)
            short[i] -= delta
            spare[end] -= delta
            paths += 1
            if short[i] <= _EPS:
                unmet -= 1
                if not unmet:
                    break


@dataclass(frozen=True, eq=False)
class DemandFlow:
    """A maximum task→subinterval flow, kept alive across task arrivals.

    The state of :func:`realize_demands`'s network for a growing task set:
    the subinterval ``boundaries``, the ``coverage`` matrix, the per-task
    ``demands`` and the flow ``x`` (the same ``x_{i,j}`` matrix
    :func:`realize_demands` returns; a column sum is that column's sink
    flow).  :meth:`with_task` never changes ``self``: it returns the
    candidate state with one more task, whose max flow is found by
    augmenting the current one, so the caller keeps whichever of the two
    its verdict calls for.
    """

    m: int
    boundaries: np.ndarray = field(default_factory=lambda: np.zeros(0))
    coverage: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    x: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    demands: np.ndarray = field(default_factory=lambda: np.zeros(0))
    paths: int = 0  # augmenting paths the arrival that built this state pushed

    def __len__(self) -> int:
        return self.demands.size

    @property
    def n_subintervals(self) -> int:
        return self.x.shape[1]

    @property
    def feasible(self) -> bool:
        """True iff the flow meets every demand (:func:`realize_demands`'s test)."""
        return _saturated(float(self.x.sum()), float(self.demands.sum()))

    def with_task(self, release: float, deadline: float, demand: float) -> "DemandFlow":
        """The state with one more task, its flow augmented to a maximum.

        A boundary that cuts a column ``[a, c]`` at ``v`` splits every flow
        in it in proportion to the piece lengths, ``x·(v−a)/(c−a)`` and the
        remainder, clamped so that no flow exceeds its piece and no column
        exceeds ``m`` times its piece.  The split flow still respects every
        capacity, so only paths from tasks whose source edge is unsaturated
        (the new task, and any task that lost flow to the clamp) are
        searched.
        """
        b, cov, x = self.boundaries, self.coverage, self.x
        for v in (float(release), float(deadline)):
            b, cov, x = _cut(b, cov, x, v, self.m)
        row = (release <= b[:-1]) & (b[1:] <= deadline)
        cov = np.vstack([cov, row])
        x = np.vstack([x, np.zeros(row.size)])
        demands = np.append(self.demands, float(demand))
        paths, _ = _augment(x, cov, np.diff(b), self.m, demands)
        return DemandFlow(self.m, b, cov, x, demands, paths)
