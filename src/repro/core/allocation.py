"""Available-execution-time allocation in heavily overlapped subintervals.

This is the heart of the paper (§V-B/§V-C).  During a heavily overlapped
subinterval ``[t_j, t_{j+1}]`` there are ``n_j > m`` ready tasks competing
for ``m·Δ`` core-time (``Δ = t_{j+1} − t_j``).  Two allocation policies:

* **Even** — every overlapping task receives ``m·Δ / n_j``.
* **DER-based (Algorithm 2)** — allocate proportionally to each task's
  *Desired Execution Requirement* ``c(τ) = |U^O_τ ∩ [t_j, t_{j+1}]| · f^O_τ``
  (the work the unlimited-core optimum would do here), processing tasks in
  decreasing DER order and capping any share at the subinterval length ``Δ``;
  capped tasks are removed from the pool and the remainder is re-normalized —
  exactly the behaviour of the paper's worked example (§V-D), which this
  module reproduces to four decimals in the test-suite.

:class:`AllocationPlan` assembles the full matrix ``x[i, j]`` of available
times over *all* subintervals — lightly overlapped ones contribute the whole
``Δ`` to each overlapping task (Observation 2) — yielding each task's total
available time ``A_i``, the input to the final frequency refinement.

The matrix is built in one batched pass: light subintervals via the
coverage mask, heavy subintervals via an even-split broadcast or a
closed-form water-filling over the batched DER matrix (see
:func:`_waterfill_capped`).  The original per-subinterval loop over
:func:`allocate_evenly`/:func:`allocate_der` lives on in the test-suite as
the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, get_args

import numpy as np

from .ideal import IdealSolution
from .intervals import Subinterval, Timeline
from .task import TaskSet

__all__ = [
    "allocate_evenly",
    "allocate_der",
    "allocate_proportional",
    "AllocationPlan",
    "assemble_columns",
    "build_allocation_plan",
    "AllocationMethod",
    "METHODS",
    "check_method",
]

AllocationMethod = Literal["even", "der"]

#: The heavy-subinterval allocation policies, shared by the batch pipeline
#: and the incremental session.
METHODS: tuple[str, ...] = get_args(AllocationMethod)


def check_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(
            f"unknown allocation method {method!r}; "
            f"batch and session methods are {METHODS}"
        )


def allocate_evenly(sub: Subinterval, m: int) -> dict[int, float]:
    """Even split of ``m·Δ`` among the overlapping tasks of ``sub``.

    Valid for any subinterval; for a lightly overlapped one the even share
    ``m·Δ/n_j`` exceeds ``Δ``, so it is clamped to ``Δ`` (each task may own a
    core for the whole subinterval but no more).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = sub.n_overlapping
    if n == 0:
        return {}
    share = min(m * sub.length / n, sub.length)
    return {tid: share for tid in sub.task_ids}


def allocate_proportional(
    sub: Subinterval, m: int, weights: Mapping[int, float]
) -> dict[int, float]:
    """Weight-proportional allocation with per-task cap ``Δ`` (Algorithm 2's core).

    Tasks are visited in decreasing weight order.  At each step the candidate
    share is ``w(τ) / W_rem · T_rem`` where ``W_rem`` is the remaining weight
    pool and ``T_rem`` the remaining core-time; shares above ``Δ`` are capped
    at ``Δ`` and the remainder re-normalized.  Zero-weight tasks receive zero
    time — except when *every* weight is zero, in which case the split falls
    back to :func:`allocate_evenly` so that no capacity is stranded
    (Observation 2's intent: available time must not be starved just because
    the weighting carries no information).

    The DER-based method is this with DER weights; the ablation experiments
    plug in alternative weightings (total work, intensity).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = list(sub.task_ids)
    if not ids:
        return {}
    for tid in ids:
        if weights.get(tid, 0.0) < 0:
            raise ValueError(f"negative weight for task {tid}")
    delta = sub.length
    w_rem = sum(weights.get(tid, 0.0) for tid in ids)
    if w_rem <= 0.0:
        # all-zero weights: proportional shares are undefined — even split
        return allocate_evenly(sub, m)
    # decreasing weight; stable tie-break on task id for determinism
    order = sorted(ids, key=lambda tid: (-weights.get(tid, 0.0), tid))
    alloc: dict[int, float] = {tid: 0.0 for tid in ids}
    t_rem = m * delta
    for tid in order:
        if w_rem <= 0.0 or t_rem <= 0.0:
            break
        want = weights.get(tid, 0.0) / w_rem * t_rem
        give = min(want, delta, t_rem)
        alloc[tid] = give
        w_rem -= weights.get(tid, 0.0)
        t_rem -= give
    return alloc


def allocate_der(
    sub: Subinterval,
    m: int,
    ideal: IdealSolution,
) -> dict[int, float]:
    """Algorithm 2: DER-proportional allocation with per-task cap ``Δ``.

    The weight of task ``τ`` is its Desired Execution Requirement
    ``c(τ) = |U^O_τ ∩ [t_j, t_{j+1}]| · f^O_τ`` — the work the unlimited-core
    optimum performs inside this subinterval.

    Returns a mapping task-id → allocated available time.
    """
    overlaps = ideal.overlap_with(sub.start, sub.end)  # one vectorized pass
    ders = {
        tid: float(overlaps[tid] * ideal.frequencies[tid])
        for tid in sub.task_ids
    }
    return allocate_proportional(sub, m, ders)


@dataclass(frozen=True)
class AllocationPlan:
    """The full available-time matrix ``x[i, j]`` for one task set & platform.

    Attributes
    ----------
    timeline:
        The subinterval decomposition the plan is indexed by.
    m:
        Number of cores.
    method:
        Which heavy-subinterval policy produced the plan.
    x:
        ``(n_tasks, n_subintervals)`` array of available execution times.
        ``x[i, j] = 0`` whenever task ``i`` does not overlap subinterval
        ``j``; in lightly overlapped subintervals ``x[i, j] = Δ_j`` for every
        overlapping task.
    """

    timeline: Timeline
    m: int
    method: str
    x: np.ndarray

    def __post_init__(self) -> None:
        self.x.setflags(write=False)

    @property
    def tasks(self) -> TaskSet:
        """The scheduled task set."""
        return self.timeline.tasks

    @property
    def available_times(self) -> np.ndarray:
        """Total available time ``A_i = Σ_j x[i, j]`` per task."""
        return self.x.sum(axis=1)

    def check(self, rtol: float = 1e-9) -> None:
        """Raise when the plan violates its defining constraints."""
        lengths = self.timeline.lengths
        if np.any(self.x < -rtol):
            raise AssertionError("negative allocation")
        if np.any(self.x > lengths[None, :] * (1 + rtol) + rtol):
            raise AssertionError("per-task allocation exceeds subinterval length")
        if np.any(self.x[~self.timeline.coverage] != 0.0):
            raise AssertionError("allocation outside task window")
        totals = self.x.sum(axis=0)
        if np.any(totals > self.m * lengths * (1 + rtol) + rtol):
            raise AssertionError("subinterval over-committed beyond m·Δ")
        # no starvation: every subinterval with overlapping tasks must hand
        # out some of its capacity (the zero-weight even-split fallback
        # guarantees this for both allocation policies)
        if np.any((self.timeline.overlap_counts > 0) & (totals <= 0.0)):
            raise AssertionError(
                "overlapped subinterval allocates no time (starvation)"
            )

    def heavy_subintervals(self) -> list[Subinterval]:
        """The heavily overlapped subintervals of the plan's timeline."""
        return self.timeline.heavy(self.m)


def _waterfill_capped(
    w: np.ndarray, delta: np.ndarray, m: int
) -> np.ndarray:
    """Closed-form Algorithm 2 over many heavy subintervals at once.

    Algorithm 2's sequential greedy — decreasing-weight order, share
    ``w/W_rem · T_rem`` capped at ``Δ`` with re-normalization — is exactly
    capped proportional water-filling: because the ratio ``T_rem/W_rem``
    never decreases along the pass and weights are visited in decreasing
    order, the capped tasks always form a prefix of the sorted order.  The
    final allocation is therefore ``min(w_i · r*, Δ)`` where
    ``r* = (m·Δ − k·Δ) / (W − P_k)`` for the smallest prefix size ``k`` with
    ``w_(k+1) · (m·Δ − k·Δ) ≤ Δ · (W − P_k)`` (``P_k`` the sorted prefix
    sum).  That smallest ``k`` is found for every column in one batched
    argmax over the cumulative-sum matrix — no per-task loop.

    ``w`` is the ``(n_tasks, H)`` weight matrix of the heavy columns (zero
    outside coverage), ``delta`` the column lengths.  Returns the
    allocation and each column's total weight.  Columns whose total
    weight is zero return all-zero allocations; the caller applies the
    even-split fallback there.
    """
    n, H = w.shape
    if H == 0:
        return np.zeros((n, 0)), np.zeros(0)
    T = m * delta
    # the number of capped tasks never exceeds m, so only the m + 1 largest
    # weights per column matter
    K = min(m + 1, n)
    # Canonical summation: sort each column descending and take sequential
    # cumulative sums.  Both the top-K prefix sums and the column total are
    # then functions of the *multiset* of positive weights alone — zero
    # (uncovered) rows trail the sort and cannot perturb any prefix.  A
    # plain ``w.sum(axis=0)`` does not have this property: numpy's pairwise
    # reduction regroups when the row count changes, shifting the total by
    # an ulp, which would break bit-equality between a column computed at
    # ``n`` rows and the same column spliced unchanged through an
    # ``(n+1)``-row rebuild (see :mod:`repro.core.incremental`).
    sw = np.sort(w, axis=0)[::-1]  # (n, H) descending per column; zeros trail
    # csum[k] is the weight removed before step k (csum[0] = 0), and
    # csum[n] the column total
    csum = np.empty((n + 1, H))
    csum[0] = 0.0
    np.cumsum(sw, axis=0, out=csum[1:])
    ws = sw[:K]  # (K, H) descending top weights per column
    wtot = csum[n]
    prefix = csum[:K]
    # room[k]: the time left once the k heaviest tasks are capped at Δ
    room = T - np.arange(K, dtype=np.float64)[:, None] * delta
    # the remaining-pool clamp keeps the k = m row exactly true (0 <= 0)
    # even when fp dust drives wtot - prefix a hair negative
    uncapped = ws * room <= delta * np.maximum(wtot - prefix, 0.0)
    # first uncapped position = number of capped tasks; guaranteed to exist
    # for heavy columns (at k = m the remaining capacity is zero)
    kstar = np.argmax(uncapped, axis=0)
    cols = np.arange(H)
    t_rem = np.maximum(room[kstar, cols], 0.0)
    w_rem = wtot - prefix[kstar, cols]
    live = w_rem > 0
    r = np.divide(t_rem, w_rem, out=np.zeros(H), where=live)
    alloc = np.multiply(w, r, out=np.empty_like(w))
    np.minimum(alloc, delta, out=alloc)
    # columns where every positive-weight task was capped before the pool
    # emptied (w_rem == 0 with time left): each of them holds Δ outright
    exhausted = ~live
    if exhausted.any():
        alloc[:, exhausted] = np.where(
            w[:, exhausted] > 0, delta[exhausted], 0.0
        )
    return alloc, wtot


def assemble_columns(
    cov: np.ndarray,
    lengths: np.ndarray,
    m: int,
    base: str,
    der: np.ndarray | None = None,
) -> np.ndarray:
    """Batched per-column assembly of ``x`` over an arbitrary column subset.

    The shared numeric kernel of the vectorized batch path and the
    incremental :class:`~repro.core.incremental.ScheduleSession`: both feed
    it a ``(n_tasks, k)`` coverage slice, the ``k`` column lengths, and (for
    the DER policy) the matching ``(n_tasks, k)`` DER-weight slice.  Every
    column is assembled independently — light columns grant the full length
    to every covering task (Observation 2), heavy columns get the even split
    or the Algorithm-2 water-filling — so recomputing only the columns a
    delta touched produces bit-identical values to a full batch pass.
    """
    counts = cov.sum(axis=0)
    heavy = counts > m
    if not heavy.any():
        # Observation 2: light subintervals grant the full length to every
        # overlapping task
        return np.where(cov, lengths[None, :], 0.0)

    # columns that are all heavy (most session deltas) need no gathers
    all_heavy = heavy.all()
    h = slice(None) if all_heavy else heavy
    d_h = lengths[h]
    n_h = counts[h]
    cov_h = cov[:, h]
    if base == "even":
        alloc = np.where(cov_h, np.minimum(m * d_h / n_h, d_h), 0.0)
    else:
        assert der is not None
        w = np.where(cov_h, der[:, h], 0.0)
        alloc, wtot = _waterfill_capped(w, d_h, m)
        # all-zero-DER columns: proportional shares are undefined — even
        # split, mirroring allocate_proportional's fallback
        zero = wtot <= 0.0
        if zero.any():
            even = np.where(cov_h, np.minimum(m * d_h / n_h, d_h), 0.0)
            alloc[:, zero] = even[:, zero]
    if all_heavy:
        return alloc
    x = np.where(cov, lengths[None, :], 0.0)
    x[:, heavy] = alloc
    return x


def build_allocation_plan(
    timeline: Timeline,
    m: int,
    method: AllocationMethod,
    ideal: IdealSolution | None = None,
) -> AllocationPlan:
    """Assemble the ``x[i, j]`` matrix for either allocation policy.

    Lightly overlapped subintervals always contribute their full length to
    every overlapping task (Observation 2); heavily overlapped ones receive
    the even split or the Algorithm-2 DER shares, all columns in one
    batched pass.  ``ideal`` is required for ``"der"`` (it defines the
    DERs).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_method(method)
    der = None
    if method == "der":
        if ideal is None:
            raise ValueError("DER-based allocation requires the ideal solution")
        der = ideal.der_matrix(timeline)
    x = assemble_columns(timeline.coverage, timeline.lengths, m, method, der)
    plan = AllocationPlan(timeline=timeline, m=m, method=method, x=x)
    plan.check()
    return plan
