"""Incremental scheduling core: delta re-planning without full rebuilds.

The batch pipeline (§IV-§V) recomputes everything — event sort, coverage,
allocation, packing, frequencies — from scratch for every task-set change.
But the subinterval structure is *local*: one arrival inserts at most two
boundaries and perturbs only the subintervals its window ``[R_i, D_i]``
intersects; one departure removes at most two boundaries and merges their
neighbours.  Everything outside that window keeps its exact allocation,
because the per-column assembly (:func:`repro.core.allocation.assemble_columns`)
treats columns independently and a non-covering task contributes an exact
``0.0`` row to every column reduction.

:class:`ScheduleSession` exploits this: it holds the current boundaries,
coverage matrix, and allocation matrix ``x`` across deltas and applies

* :meth:`~ScheduleSession.add_task` — splice ≤2 boundaries in, recompute
  only the columns inside the perturbed window, splice the rest through;
* :meth:`~ScheduleSession.remove_task` / :meth:`~ScheduleSession.complete_task`
  — drop ≤2 boundaries, merge neighbours, recompute the merged window;
* :meth:`~ScheduleSession.advance_to` — re-anchor released tasks to ``t``
  (the online re-planning step), copying every column whose coverage and
  weights provably did not change.

The session's state after every delta is *bit-identical* to a full batch
:class:`~repro.core.scheduler.SubintervalScheduler` rebuild over the same
task rows (``python -m repro.core.incremental_smoke`` compares the two on
random event streams).  Materializing Python objects (``TaskSet``, ``Timeline``
subintervals, ``Schedule`` segments) is deferred to
:meth:`~ScheduleSession.result` / :meth:`~ScheduleSession.final_segments`,
which is where the batch path spends most of its time on large instances.

Observability: every delta emits a ``session.delta`` span (when a trace is
being captured) recording the operation, the number of subintervals
recomputed, and the total — the service surfaces these as the
``stage_ms:session.delta`` histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..obs import context as obs
from ..power.models import PolynomialPower
from .allocation import AllocationPlan, assemble_columns, check_method
from .frequency import FrequencyAssignment, refine_frequencies
from .intervals import Timeline
from .schedule import Segment
from .scheduler import SchedulingResult, SubintervalScheduler, fill_slots
from .task import Task, TaskSet
from .wrap_schedule import pack_matrix_flat

__all__ = ["DeltaStats", "ScheduleSession"]


@dataclass(frozen=True)
class DeltaStats:
    """Cost accounting for one applied delta.

    ``touched`` counts the subintervals whose allocation was recomputed;
    ``total`` is the subinterval count after the delta.  Their ratio is the
    incremental engine's whole value proposition, so it is also exported on
    the ``session.delta`` span and aggregated on the session.
    """

    op: str
    touched: int
    total: int
    wall_s: float


class ScheduleSession:
    """A stateful scheduling instance that re-plans by delta.

    Parameters
    ----------
    m, power:
        Platform definition (homogeneous DVFS cores, continuous model).
    method:
        Heavy-subinterval allocation policy, ``"even"`` or ``"der"``.
    tasks:
        Optional initial task set; each task is added in order (the returned
        handles are ``0..n-1``).

    The session identifies tasks by integer *handles* (stable across row
    insertions/removals).  Row order matters for bit-exactness against a
    batch rebuild — rows are compared positionally — so :meth:`add_task`
    accepts an explicit insertion ``index`` for drivers that must keep a
    particular order (the online scheduler keeps ascending original index).
    """

    def __init__(
        self,
        m: int,
        power: PolynomialPower,
        method: str = "der",
        tasks: TaskSet | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        check_method(method)
        self.m = int(m)
        self.power = power
        self.method = method
        self._f_crit = float(power.critical_frequency())
        self._next_handle = 0
        self._clear()
        # lifetime aggregates for the touched-vs-total ratio
        self.last_delta: DeltaStats | None = None
        self.touched_columns = 0
        self.total_columns = 0
        self.deltas_applied = 0
        if tasks is not None:
            for t in tasks:
                self.add_task(t)

    def _clear(self) -> None:
        self._handles: list[int] = []
        self._rows: dict[int, int] = {}
        self._rel = np.zeros(0)
        self._dls = np.zeros(0)
        self._wrk = np.zeros(0)
        self._ideal_f = np.zeros(0)
        self._ideal_dur = np.zeros(0)
        self._b = np.zeros(0)  # boundaries, (J+1,) when non-empty
        self._bcount = np.zeros(0, dtype=np.int64)  # events per boundary
        self._cov = np.zeros((0, 0), dtype=bool)
        self._x = np.zeros((0, 0))
        self._assign: FrequencyAssignment | None = None

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def is_empty(self) -> bool:
        return not self._handles

    @property
    def handles(self) -> tuple[int, ...]:
        """Current task handles in row order."""
        return tuple(self._handles)

    @property
    def n_subintervals(self) -> int:
        return max(self._b.size - 1, 0)

    @property
    def boundaries(self) -> np.ndarray:
        return self._b

    @property
    def energy(self) -> float:
        """Total energy of the current final plan (0 when empty)."""
        return self._assign.total_energy if self._assign is not None else 0.0

    @property
    def frequencies(self) -> np.ndarray:
        if self._assign is None:
            return np.zeros(0)
        return self._assign.frequencies

    @property
    def available_times(self) -> np.ndarray:
        """Per-task total available time ``A_i`` of the current plan."""
        return self._x.sum(axis=1)

    def task_of(self, handle: int) -> Task:
        """The current ``(R, D, C)`` of one handle (post re-anchoring)."""
        row = self._rows[handle]
        return Task(
            float(self._rel[row]), float(self._dls[row]), float(self._wrk[row])
        )

    # -- delta accounting ------------------------------------------------------

    def _note(
        self, op: str, touched: int, t0: float, sp=None
    ) -> DeltaStats:
        total = self.n_subintervals
        stats = DeltaStats(op, int(touched), total, time.perf_counter() - t0)
        self.last_delta = stats
        self.touched_columns += stats.touched
        self.total_columns += total
        self.deltas_applied += 1
        if sp is not None:
            sp.set("touched", stats.touched)
            sp.set("total", total)
            sp.set("n_tasks", len(self))
        return stats

    # -- shared numeric kernels ------------------------------------------------

    def _ideal_entry(self, row: int) -> None:
        """Recompute one row of the ideal solution (same IEEE ops as batch)."""
        window = self._dls[row] - self._rel[row]
        f = max(self._f_crit, self._wrk[row] / window)
        self._ideal_f[row] = f
        self._ideal_dur[row] = min(self._wrk[row] / f, window)

    def _recompute_cols(self, cols: np.ndarray) -> None:
        """Re-run the shared column assembly over ``cols`` only."""
        if cols.size == 0:
            return
        starts = self._b[:-1][cols]
        ends = self._b[1:][cols]
        cov = self._cov[:, cols]
        lengths = (self._b[1:] - self._b[:-1])[cols]
        der = None
        if self.method == "der":
            # same elementwise chain as IdealSolution.overlap_with/der_matrix,
            # restricted to the touched columns
            lo = np.maximum(self._rel[:, None], starts[None, :])
            hi = np.minimum(
                (self._rel + self._ideal_dur)[:, None], ends[None, :]
            )
            np.subtract(hi, lo, out=hi)
            o = np.maximum(hi, 0.0, out=hi)
            der = o * self._ideal_f[:, None]
        self._x[:, cols] = assemble_columns(cov, lengths, self.m, self.method, der)

    def _refresh(self) -> None:
        """Recompute the per-task frequency refinement from the full plan."""
        if not self._handles:
            self._assign = None
            return
        # the full-matrix row sum matches the batch plan.available_times
        # reduction bit-for-bit (identical matrix, identical reduction)
        self._assign = refine_frequencies(
            self._wrk, self._x.sum(axis=1), self.power
        )

    # -- deltas ----------------------------------------------------------------

    def add_task(self, task: Task, index: int | None = None) -> int:
        """Admit one task; returns its handle.

        Inserts ≤2 boundaries and recomputes only the subintervals inside
        the perturbed window (the old column containing ``R`` through the
        old column containing ``D``); every other column's allocation is
        spliced through unchanged.  ``index`` chooses the row position
        (default: append).
        """
        if not isinstance(task, Task):
            task = Task(*task)
        n = len(self._handles)
        row = n if index is None else int(index)
        if not 0 <= row <= n:
            raise IndexError(f"insertion index {row} out of range 0..{n}")
        t0 = time.perf_counter()
        with obs.traced("session.delta", op="add_task") as sp:
            handle = self._next_handle
            self._next_handle += 1
            R, D, C = float(task.release), float(task.deadline), float(task.work)
            if n == 0:
                touched = self._bootstrap(R, D, C)
            else:
                touched = self._splice_in(row, R, D, C)
            self._handles.insert(row, handle)
            self._rows = {h: i for i, h in enumerate(self._handles)}
            self._refresh()
            self._note("add_task", touched, t0, sp)
        return handle

    def _bootstrap(self, R: float, D: float, C: float) -> int:
        self._rel = np.array([R])
        self._dls = np.array([D])
        self._wrk = np.array([C])
        self._ideal_f = np.zeros(1)
        self._ideal_dur = np.zeros(1)
        self._ideal_entry(0)
        self._b = np.array([R, D])
        self._bcount = np.array([1, 1], dtype=np.int64)
        self._cov = np.ones((1, 1), dtype=bool)
        self._x = np.zeros((1, 1))
        self._recompute_cols(np.array([0]))
        return 1

    def _splice_in(self, row: int, R: float, D: float, C: float) -> int:
        old_b = self._b
        J = old_b.size - 1
        n = len(self._handles)

        # perturbed window: if R (D) splits an old column, the whole old
        # column is perturbed; otherwise the window starts (ends) at R (D)
        lo, hi = R, D
        jR = int(np.searchsorted(old_b, R, side="right")) - 1
        if 0 <= jR < J and old_b[jR] < R:
            lo = float(old_b[jR])
        jD = int(np.searchsorted(old_b, D, side="right")) - 1
        if 0 <= jD < J and old_b[jD] < D:
            hi = float(old_b[jD + 1])

        # boundary multiset: insert R/D where new, bump the event count
        pos: list[int] = []
        vals: list[float] = []
        for v in (R, D):
            i = int(np.searchsorted(old_b, v))
            if not (i < old_b.size and old_b[i] == v):
                pos.append(i)
                vals.append(v)
        new_b = np.insert(old_b, pos, vals) if vals else old_b.copy()
        new_bcount = np.insert(self._bcount, pos, 0) if vals else self._bcount.copy()
        for v in (R, D):
            new_bcount[int(np.searchsorted(new_b, v))] += 1

        starts, ends = new_b[:-1], new_b[1:]
        # containing old column per new column (valid where the new column
        # lies inside the old horizon); coverage/allocation gathers from it
        j_old = np.searchsorted(old_b, starts, side="right") - 1
        safe = np.clip(j_old, 0, J - 1)
        valid = (j_old >= 0) & (j_old < J) & (old_b[safe + 1] >= ends)
        touched = (starts >= lo) & (ends <= hi)
        copy = valid & ~touched

        cov_rows = np.zeros((n, starts.size), dtype=bool)
        cov_rows[:, valid] = self._cov[:, safe[valid]]
        cov_new_row = (R <= starts) & (D >= ends)
        self._cov = np.insert(cov_rows, row, cov_new_row, axis=0)

        x_rows = np.zeros((n, starts.size))
        x_rows[:, copy] = self._x[:, safe[copy]]
        self._x = np.insert(x_rows, row, 0.0, axis=0)

        self._rel = np.insert(self._rel, row, R)
        self._dls = np.insert(self._dls, row, D)
        self._wrk = np.insert(self._wrk, row, C)
        self._ideal_f = np.insert(self._ideal_f, row, 0.0)
        self._ideal_dur = np.insert(self._ideal_dur, row, 0.0)
        self._ideal_entry(row)
        self._b = new_b
        self._bcount = new_bcount
        cols = np.flatnonzero(touched)
        self._recompute_cols(cols)
        return cols.size

    def complete_task(self, handle: int) -> DeltaStats:
        """Retire a finished task (structurally identical to removal)."""
        return self._remove(handle, "complete_task")

    def remove_task(self, handle: int) -> DeltaStats:
        """Withdraw a task from the plan."""
        return self._remove(handle, "remove_task")

    def _remove(self, handle: int, op: str) -> DeltaStats:
        row = self._rows.pop(handle, None)
        if row is None:
            raise KeyError(f"unknown task handle {handle}")
        t0 = time.perf_counter()
        with obs.traced("session.delta", op=op) as sp:
            if len(self._handles) == 1:
                self._clear()
                return self._note(op, 0, t0, sp)
            touched = self._splice_out(row)
            del self._handles[row]
            self._rows = {h: i for i, h in enumerate(self._handles)}
            self._refresh()
            return self._note(op, touched, t0, sp)

    def _splice_out(self, row: int) -> int:
        old_b = self._b
        J = old_b.size - 1
        R, D = float(self._rel[row]), float(self._dls[row])

        iR = int(np.searchsorted(old_b, R))
        iD = int(np.searchsorted(old_b, D))
        new_bcount = self._bcount.copy()
        new_bcount[iR] -= 1
        new_bcount[iD] -= 1
        dead = new_bcount == 0

        # perturbed window: a removed interior boundary merges its two
        # neighbour columns, so the window widens to the surviving boundary
        lo, hi = R, D
        if dead[iR] and iR > 0:
            lo = float(old_b[iR - 1])
        if dead[iD] and iD < J:
            hi = float(old_b[iD + 1])

        keep_b = ~dead
        new_b = old_b[keep_b]
        new_bcount = new_bcount[keep_b]

        starts, ends = new_b[:-1], new_b[1:]
        # every new boundary is an old boundary, so the containment check
        # reduces to "was this exact column present before?"
        j_old = np.searchsorted(old_b, starts)
        valid = old_b[np.minimum(j_old + 1, J)] == ends
        touched = (starts >= lo) & (ends <= hi)
        copy = valid & ~touched

        n = len(self._handles)
        cov_rows = np.zeros((n, starts.size), dtype=bool)
        cov_rows[:, valid] = self._cov[:, j_old[valid]]
        inv = ~valid
        if inv.any():
            # merged columns: recompute coverage directly (exact predicate)
            cov_rows[:, inv] = (self._rel[:, None] <= starts[inv][None, :]) & (
                self._dls[:, None] >= ends[inv][None, :]
            )
        self._cov = np.delete(cov_rows, row, axis=0)

        x_rows = np.zeros((n, starts.size))
        x_rows[:, copy] = self._x[:, j_old[copy]]
        self._x = np.delete(x_rows, row, axis=0)

        self._rel = np.delete(self._rel, row)
        self._dls = np.delete(self._dls, row)
        self._wrk = np.delete(self._wrk, row)
        self._ideal_f = np.delete(self._ideal_f, row)
        self._ideal_dur = np.delete(self._ideal_dur, row)
        self._b = new_b
        self._bcount = new_bcount
        cols = np.flatnonzero(touched)
        self._recompute_cols(cols)
        return cols.size

    def advance_to(
        self, t: float, works: Mapping[int, float] | None = None
    ) -> DeltaStats:
        """Re-anchor every released task's window to start at ``t``.

        This is the online re-planning step: tasks released before ``t``
        have their release moved to ``t`` (their past is already executed)
        and, via ``works`` (handle → remaining work), their execution
        requirement replaced by what is left.  Tasks with a future release
        are untouched.  A deadline at or before ``t`` with work remaining is
        a driver bug and raises.

        Under the ``"even"`` policy only columns whose structure changed are
        recomputed; under ``"der"`` any column covered by a re-anchored task
        carries new weights, so the copy set is correspondingly smaller.
        """
        t = float(t)
        if self.is_empty:
            raise ValueError("cannot advance an empty session")
        if np.any(self._dls <= t):
            bad = int(np.argmax(self._dls <= t))
            raise ValueError(
                f"task handle {self._handles[bad]} has remaining work "
                f"but its deadline {self._dls[bad]} is not after t={t}"
            )
        if works:
            for h, w in works.items():
                if self._rows.get(h) is None:
                    raise KeyError(f"unknown task handle {h}")
                if float(w) <= 0:
                    raise ValueError(
                        f"remaining work for handle {h} must be positive; "
                        "complete_task() finished tasks instead"
                    )
        t0 = time.perf_counter()
        with obs.traced("session.delta", op="advance_to") as sp:
            changed = np.zeros(len(self._handles), dtype=bool)
            if works:
                for h, w in works.items():
                    row = self._rows[h]
                    w = float(w)
                    if w != self._wrk[row]:
                        self._wrk[row] = w
                        changed[row] = True
            touched = self._reanchor(t, changed)
            self._refresh()
            return self._note("advance_to", touched, t0, sp)

    def _reanchor(self, t: float, changed: np.ndarray) -> int:
        old_b = self._b
        J = old_b.size - 1
        moved = self._rel < t
        changed = changed | moved
        if moved.any():
            self._rel = np.where(moved, t, self._rel)
        for row in np.flatnonzero(changed):
            self._ideal_entry(int(row))

        # the boundary multiset is rebuilt outright (sorting 2n floats is
        # cheap; the savings live in the column copies and the deferred
        # object materialization) — same values as TaskSet.event_times()
        events = np.concatenate([self._rel, self._dls])
        new_b, new_bcount = np.unique(events, return_counts=True)
        starts, ends = new_b[:-1], new_b[1:]

        j_old = np.searchsorted(old_b, starts)
        safe = np.minimum(j_old, J - 1)
        valid = (
            (j_old < J)
            & (old_b[safe] == starts)
            & (old_b[safe + 1] == ends)
        )
        # every new column starts at or after t (all releases are >= t now),
        # so a re-anchored task's coverage is unchanged on surviving columns;
        # its DER weights are not — a changed task invalidates the columns
        # it covers under the "der" policy
        if self.method == "der" and changed.any():
            dirty = np.zeros(starts.size, dtype=bool)
            dirty[valid] = self._cov[changed][:, j_old[valid]].any(axis=0)
            copy = valid & ~dirty
        else:
            copy = valid

        n = len(self._handles)
        cov_rows = np.zeros((n, starts.size), dtype=bool)
        cov_rows[:, valid] = self._cov[:, j_old[valid]]
        inv = ~valid
        if inv.any():
            cov_rows[:, inv] = (self._rel[:, None] <= starts[inv][None, :]) & (
                self._dls[:, None] >= ends[inv][None, :]
            )
        self._cov = cov_rows

        x_rows = np.zeros((n, starts.size))
        x_rows[:, copy] = self._x[:, j_old[copy]]
        self._x = x_rows

        self._b = new_b
        self._bcount = new_bcount.astype(np.int64)
        cols = np.flatnonzero(~copy)
        self._recompute_cols(cols)
        return cols.size

    # -- materialization -------------------------------------------------------

    def taskset(self) -> TaskSet:
        """The current rows as a :class:`TaskSet` (materializes Task objects)."""
        if self.is_empty:
            raise ValueError("session is empty")
        return TaskSet.from_arrays(self._rel, self._dls, self._wrk)

    def plan(self) -> AllocationPlan:
        """The current allocation as a batch-compatible :class:`AllocationPlan`."""
        tasks = self.taskset()
        timeline = Timeline.from_arrays(tasks, self._b, self._cov)
        return AllocationPlan(
            timeline=timeline, m=self.m, method=self.method, x=self._x.copy()
        )

    def result(self) -> SchedulingResult:
        """Materialize the full final schedule for the current state.

        Routes through the batch :meth:`SubintervalScheduler.final_from_plan`
        (including its ``plan.check()`` validation), so the produced
        ``SchedulingResult`` is exactly what a batch rebuild would return.
        """
        plan = self.plan()
        scheduler = SubintervalScheduler(
            plan.tasks, self.m, self.power, timeline=plan.timeline
        )
        kind = "F1" if self.method == "even" else "F2"
        return scheduler.final_from_plan(plan, kind=kind)

    def final_segments(self, before: float | None = None) -> list[Segment]:
        """Final-schedule segments in schedule order, without a ``Schedule``.

        The same slot fill as :meth:`SubintervalScheduler.final`, on the
        session's arrays.  ``before`` skips materializing segments starting
        at or beyond it — the online driver only ever executes the plan up
        to the next arrival, which is where the batch path wastes most of
        its object-construction time.
        """
        if self.is_empty or self._assign is None:
            return []
        ps = pack_matrix_flat(self._b, self._x, self.m, self._cov.sum(axis=0))
        return fill_slots(
            ps, self._assign.used_times, self._assign.frequencies, before
        )

    def __repr__(self) -> str:
        return (
            f"ScheduleSession({len(self)} tasks, {self.n_subintervals} "
            f"subintervals, method={self.method!r}, m={self.m})"
        )

