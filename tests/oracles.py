"""Reference implementations the production paths are checked against.

Each oracle is the straightforward version of a step that production runs
batched or incrementally:

* :func:`scalar_plan` — the per-subinterval allocation loop behind
  :func:`repro.core.allocation.build_allocation_plan`;
* :func:`scalar_slots` — the per-subinterval :func:`wrap_schedule` loop
  behind :func:`repro.core.wrap_schedule.pack_matrix_flat`;
* :func:`online_rebuild` — the online event loop with a full batch re-plan
  at every release, behind the incremental session's delta re-plan;
* :func:`batch_oracle` — a fresh batch scheduler over a session's rows;
* :func:`project_capped_box` — the single-column bisection behind
  :func:`repro.optimal.project_columns`;
* :class:`MaxFlowNetwork` and :func:`realize_demands_dinic` — Dinic's
  max flow on a freshly built task/subinterval network, behind
  :func:`repro.optimal.realize_demands`'s augmenting search;
* :func:`admission_oracle` — capped admission with a new Dinic max flow
  per arrival, behind :class:`~repro.core.admission.AdmissionController`'s
  live flow;
* :func:`validate_segments` — the per-segment, per-core and per-task
  validator loops behind :func:`repro.sim.validate_schedule`'s column
  checks;
* :func:`schedule_json_reference` — ``json.dumps`` of a document whose
  segment dicts are built from :class:`Segment` objects, behind
  :func:`repro.io.schedio.schedule_to_json`'s compact writer;
* :func:`parse_tasks_field` — a request's ``tasks`` field parsed into a
  :class:`TaskSet` of :class:`Task` objects, behind
  :func:`repro.service.protocol.parse_task_rows`'s validated rows;
* :func:`plan_key_reference` — a SHA-256 over a JSON document of the
  sorted ``repr`` strings of the task fields, behind
  :func:`repro.service.protocol.canonical_plan_key`'s float64 bits.

The tests and the benchmarks import this module; nothing under ``src/``
does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.core import (
    AllocationPlan,
    IdealSolution,
    OnlineResult,
    OnlineSubintervalScheduler,
    Schedule,
    ScheduleSession,
    Segment,
    Slot,
    SubintervalScheduler,
    Task,
    TaskSet,
    Timeline,
    allocate_der,
    allocate_evenly,
    wrap_schedule,
)
from repro.io.schedio import schedule_to_dict
from repro.io.taskio import taskset_from_dict
from repro.optimal import DemandRealization
from repro.optimal.flow import _EPS, _saturated
from repro.power import PolynomialPower
from repro.service.protocol import ProtocolError
from repro.sim.validate import Violation, ViolationKind

__all__ = [
    "FlowResult",
    "MaxFlowNetwork",
    "admission_oracle",
    "batch_oracle",
    "online_rebuild",
    "project_capped_box",
    "realize_demands_dinic",
    "scalar_plan",
    "scalar_slots",
    "schedule_json_reference",
    "validate_segments",
]


def scalar_plan(
    timeline: Timeline,
    m: int,
    method: str,
    ideal: IdealSolution | None = None,
) -> AllocationPlan:
    """The allocation plan built one subinterval at a time."""
    x = np.zeros((len(timeline.tasks), len(timeline)))
    for sub in timeline:
        if sub.n_overlapping == 0:
            continue
        if sub.is_heavy(m):
            if method == "even":
                alloc = allocate_evenly(sub, m)
            else:
                alloc = allocate_der(sub, m, ideal)
            for tid, t in alloc.items():
                x[tid, sub.index] = t
        else:
            for tid in sub.task_ids:
                x[tid, sub.index] = sub.length
    plan = AllocationPlan(timeline=timeline, m=m, method=method, x=x)
    plan.check()
    return plan


def scalar_slots(
    scheduler: SubintervalScheduler, plan: AllocationPlan
) -> list[list[Slot]]:
    """Per-subinterval slots: wrap packing for heavy columns, one core per
    task for light ones."""
    out: list[list[Slot]] = []
    for sub in scheduler.timeline:
        if sub.n_overlapping == 0:
            out.append([])
        elif sub.is_heavy(scheduler.m):
            alloc = {tid: float(plan.x[tid, sub.index]) for tid in sub.task_ids}
            out.append(wrap_schedule(sub.start, sub.end, alloc, scheduler.m))
        else:
            out.append(
                [
                    Slot(tid, core, sub.start, sub.end)
                    for core, tid in enumerate(sub.task_ids)
                ]
            )
    return out


def online_rebuild(
    tasks: TaskSet, m: int, power: PolynomialPower, method: str = "der"
) -> OnlineResult:
    """The online run with a fresh batch plan over ``Task(now, D_i,
    remaining_i)`` of the known tasks at every release instant.

    The re-plan reads only the event loop's own ``known``/``remaining``
    arrays, so it shares no state with the incremental session.
    """

    def replan(now, known, remaining, horizon_end):
        if not known:
            return [], 0, 0
        sub_tasks = TaskSet(
            [Task(now, float(tasks.deadlines[i]), float(remaining[i])) for i in known]
        )
        scheduler = SubintervalScheduler(sub_tasks, m, power)
        plan = scheduler.final(method)
        segments = [
            Segment(known[s.task_id], s.core, s.start, s.end, s.frequency)
            for s in plan.schedule
        ]
        n_cols = len(scheduler.timeline)
        return segments, n_cols, n_cols

    return OnlineSubintervalScheduler(tasks, m, power, method=method)._drive(replan)


def batch_oracle(session: ScheduleSession) -> SubintervalScheduler:
    """A fresh batch scheduler over the session's current rows."""
    return SubintervalScheduler(session.taskset(), session.m, session.power)


def project_capped_box(y: np.ndarray, upper: np.ndarray, cap: float) -> np.ndarray:
    """Project ``y`` onto ``{0 ≤ x ≤ upper, Σx ≤ cap}`` (Euclidean).

    Bisection on the threshold ``θ`` of ``x(θ) = clip(y − θ, 0, upper)``;
    ``Σ x(θ)`` is continuous and nonincreasing in ``θ``.
    """
    x0 = np.clip(y, 0.0, upper)
    total = x0.sum()
    if total <= cap + 1e-15 * max(cap, 1.0):
        return x0
    lo, hi = 0.0, float(np.max(y))  # at θ = max(y), sum is 0 ≤ cap
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        s = np.clip(y - mid, 0.0, upper).sum()
        if s > cap:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return np.clip(y - hi, 0.0, upper)


# -- Dinic's maximum flow ---------------------------------------------------------
#
# The paper's related work ([2] Albers et al., [4] Angel et al.) solves the
# zero-static-power multiprocessor problem via repeated maximum flows on a
# task/interval bipartite network.  This is the flow substrate written from
# scratch (no networkx): Dinic with BFS level graphs and DFS blocking flows.
# Capacities are floats; a relative epsilon guards the saturation tests,
# which is sufficient here because every capacity derives from a handful of
# additions of task/interval lengths.


@dataclass
class _Edge:
    to: int
    capacity: float
    flow: float
    rev: int  # index of the reverse edge in adj[to]

    @property
    def residual(self) -> float:
        return self.capacity - self.flow


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a max-flow computation."""

    value: float
    # flows on the *forward* edges, in insertion order
    edge_flows: tuple[float, ...]


class MaxFlowNetwork:
    """A capacitated directed graph with a Dinic max-flow solver."""

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.n = n_nodes
        self.adj: list[list[_Edge]] = [[] for _ in range(n_nodes)]
        self._forward: list[tuple[int, int]] = []  # (node, index in adj[node])

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge; returns its id (for flow readback)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("node out of range")
        if u == v:
            raise ValueError("self-loops not supported")
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        fwd = _Edge(to=v, capacity=float(capacity), flow=0.0, rev=len(self.adj[v]))
        bwd = _Edge(to=u, capacity=0.0, flow=0.0, rev=len(self.adj[u]))
        self.adj[u].append(fwd)
        self.adj[v].append(bwd)
        self._forward.append((u, len(self.adj[u]) - 1))
        return len(self._forward) - 1

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        levels = [-1] * self.n
        levels[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for e in self.adj[u]:
                if levels[e.to] < 0 and e.residual > _EPS:
                    levels[e.to] = levels[u] + 1
                    queue.append(e.to)
        return levels if levels[t] >= 0 else None

    def _dfs_push(
        self, u: int, t: int, pushed: float, levels: list[int], it: list[int]
    ) -> float:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            if levels[e.to] == levels[u] + 1 and e.residual > _EPS:
                got = self._dfs_push(
                    e.to, t, min(pushed, e.residual), levels, it
                )
                if got > _EPS:
                    e.flow += got
                    self.adj[e.to][e.rev].flow -= got
                    return got
            it[u] += 1
        return 0.0

    def max_flow(self, source: int, sink: int) -> FlowResult:
        """Run Dinic from ``source`` to ``sink`` (resets nothing; call once)."""
        if source == sink:
            raise ValueError("source must differ from sink")
        total = 0.0
        while True:
            levels = self._bfs_levels(source, sink)
            if levels is None:
                break
            it = [0] * self.n
            while True:
                pushed = self._dfs_push(source, sink, float("inf"), levels, it)
                if pushed <= _EPS:
                    break
                total += pushed
        flows = tuple(self.adj[u][i].flow for (u, i) in self._forward)
        return FlowResult(value=total, edge_flows=flows)

    def min_cut_reachable(self, source: int) -> list[bool]:
        """After :meth:`max_flow`: residual reachability (the min-cut side)."""
        seen = [False] * self.n
        seen[source] = True
        stack = [source]
        while stack:
            u = stack.pop()
            for e in self.adj[u]:
                if not seen[e.to] and e.residual > _EPS:
                    seen[e.to] = True
                    stack.append(e.to)
        return seen


def _build_network(
    timeline: Timeline, m: int, demands: np.ndarray
) -> tuple[MaxFlowNetwork, list[int], list[tuple[int, int, int]]]:
    """Construct the flow network; returns (net, source edge ids, middle edges)."""
    n = len(timeline.tasks)
    J = len(timeline)
    # nodes: 0 = source, 1..n = tasks, n+1..n+J = subintervals, n+J+1 = sink
    source, sink = 0, n + J + 1
    net = MaxFlowNetwork(n + J + 2)
    source_edges = []
    for i in range(n):
        source_edges.append(net.add_edge(source, 1 + i, float(demands[i])))
    middle: list[tuple[int, int, int]] = []  # (edge id, task, subinterval)
    lengths = timeline.lengths
    cov = timeline.coverage
    for i in range(n):
        for j in np.flatnonzero(cov[i]):
            eid = net.add_edge(1 + i, 1 + n + int(j), float(lengths[j]))
            middle.append((eid, i, int(j)))
    for j in range(J):
        net.add_edge(1 + n + j, sink, float(m * lengths[j]))
    return net, source_edges, middle


def realize_demands_dinic(
    tasks: TaskSet, m: int, demands, rtol: float = 1e-9
) -> DemandRealization:
    """:func:`repro.optimal.realize_demands` on a new network solved by Dinic.

    Same validation, saturation test and result shape; ``x`` is read off
    the middle edges and ``bottleneck_subintervals`` off the residual
    reachability of the subinterval nodes after the max flow.
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
    net, source_edges, middle = _build_network(timeline, m, demands)
    result = net.max_flow(0, len(tasks) + len(timeline) + 1)

    feasible = _saturated(result.value, float(demands.sum()), rtol)

    x = np.zeros((len(tasks), len(timeline)))
    for eid, i, j in middle:
        x[i, j] = max(result.edge_flows[eid], 0.0)

    realized = np.array([result.edge_flows[e] for e in source_edges])
    shortfall = np.maximum(demands - realized, 0.0)

    bottleneck: tuple[int, ...] = ()
    if not feasible:
        # a subinterval is congested when its sink edge lies on the min cut,
        # i.e. the subinterval node is still reachable in the residual graph
        reach = net.min_cut_reachable(0)
        n = len(tasks)
        bottleneck = tuple(
            j for j in range(len(timeline)) if reach[1 + n + j]
        )

    return DemandRealization(
        feasible=feasible,
        x=x,
        shortfall=shortfall,
        bottleneck_subintervals=bottleneck,
    )


def admission_oracle(stream, m: int, power: PolynomialPower, f_max: float | None):
    """Capped admission with a from-scratch flow test at every arrival.

    Yields ``(accepted, marginal_energy)`` per arrival of ``stream`` (tasks
    or ``[release, deadline, work]`` rows), lazily so that callers can time
    each one.  An arrival is checked by :func:`realize_demands_dinic` on a
    new network over the committed tasks plus it, after the isolation test;
    an accepted one joins a :class:`ScheduleSession`, whose energy
    difference is the quote (``None`` on reject).
    """
    session = ScheduleSession(m, power, method="der")
    committed: list[Task] = []
    for task in stream:
        if not isinstance(task, Task):
            task = Task(*task)
        candidate = TaskSet([*committed, task])
        fits = f_max is None
        if not fits:
            demands = candidate.works / f_max
            fits = not np.any(demands > candidate.windows * (1 + 1e-12)) and (
                realize_demands_dinic(candidate, m, demands).feasible
            )
        if not fits:
            yield False, None
            continue
        before = session.energy
        session.add_task(task)
        committed.append(task)
        yield True, session.energy - before


def _overlap_violations(
    items: list, key: str, kind: ViolationKind, tol: float
) -> list[Violation]:
    """Pairwise overlaps within a pre-grouped, time-sorted segment list."""
    out: list[Violation] = []
    for a, b in zip(items, items[1:]):
        if b.start < a.end - tol:
            out.append(
                Violation(
                    kind=kind,
                    detail=(
                        f"{key} segments [{a.start:g},{a.end:g}] (task {a.task_id}, "
                        f"core {a.core}) and [{b.start:g},{b.end:g}] (task "
                        f"{b.task_id}, core {b.core}) overlap"
                    ),
                    task_id=a.task_id,
                    core=a.core,
                )
            )
    return out


def validate_segments(
    schedule: Schedule, tol: float = 1e-9, check_completion: bool = True
) -> list[Violation]:
    """Every invariant violation, found by walking :class:`Segment` objects:
    each segment's window, then each core's and each task's segments
    sorted by start, then each task's completed work."""
    violations: list[Violation] = []
    tasks = schedule.tasks
    for s in schedule:
        r = tasks.releases[s.task_id]
        d = tasks.deadlines[s.task_id]
        if s.start < r - tol or s.end > d + tol:
            violations.append(
                Violation(
                    kind=ViolationKind.OUTSIDE_WINDOW,
                    detail=(
                        f"task {s.task_id} segment [{s.start:g},{s.end:g}] outside "
                        f"window [{r:g},{d:g}]"
                    ),
                    task_id=s.task_id,
                    core=s.core,
                )
            )
    for core in range(schedule.n_cores):
        segs = sorted(schedule.segments_of_core(core), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"core {core}", ViolationKind.CORE_CONFLICT, tol)
        )
    for tid in range(len(tasks)):
        segs = sorted(schedule.segments_of_task(tid), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"task {tid}", ViolationKind.TASK_PARALLEL, tol)
        )
    if check_completion:
        done = np.zeros(len(tasks))
        for s in schedule:
            done[s.task_id] += s.work
        for tid in range(len(tasks)):
            need = tasks.works[tid]
            if abs(done[tid] - need) > tol * max(need, 1.0) + tol:
                violations.append(
                    Violation(
                        kind=ViolationKind.WORK_MISMATCH,
                        detail=(
                            f"task {tid} completed {done[tid]:g} of required "
                            f"{need:g}"
                        ),
                        task_id=tid,
                    )
                )
    return violations


def schedule_json_reference(schedule: Schedule) -> str:
    """The compact JSON document with one dict per :class:`Segment`."""
    doc = schedule_to_dict(schedule)
    doc["segments"] = [
        {
            "task": s.task_id,
            "core": s.core,
            "start": s.start,
            "end": s.end,
            "frequency": s.frequency,
        }
        for s in schedule
    ]
    return json.dumps(doc)


# -- request parsing and the plan key ----------------------------------------------


def _parse_task_row(row, index: int) -> Task:
    try:
        if isinstance(row, dict):
            return Task(
                release=float(row["release"]),
                deadline=float(row["deadline"]),
                work=float(row["work"]),
                name=str(row.get("name", "")),
            )
        if isinstance(row, (list, tuple)) and len(row) in (3, 4):
            name = str(row[3]) if len(row) == 4 else ""
            return Task(
                release=float(row[0]),
                deadline=float(row[1]),
                work=float(row[2]),
                name=name,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"task #{index} is malformed: {exc}") from exc
    raise ProtocolError(
        f"task #{index} must be a [release, deadline, work(, name)] row "
        f"or an object with those fields"
    )


def parse_tasks_field(obj) -> TaskSet:
    """Parse the ``tasks`` field of a request into a validated TaskSet."""
    if isinstance(obj, dict):
        # the on-disk envelope format, embedded verbatim
        try:
            return taskset_from_dict(obj)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    if isinstance(obj, list):
        if not obj:
            raise ProtocolError("tasks list is empty")
        return TaskSet(_parse_task_row(row, i) for i, row in enumerate(obj))
    raise ProtocolError("tasks must be a list or a repro-taskset object")


def plan_key_reference(tasks, m: int, power: PolynomialPower, method: str) -> str:
    """SHA-256 cache key, invariant to task order and JSON field order.

    Floats go through :func:`repr`, which is the shortest exact
    representation in Python 3 — two bit-identical instances always get
    the same key, and nearby-but-different floats never collide.
    """
    rows = sorted(
        (repr(t.release), repr(t.deadline), repr(t.work), t.name) for t in tasks
    )
    payload = json.dumps(
        {
            "tasks": rows,
            "m": int(m),
            "alpha": repr(power.alpha),
            "static": repr(power.static),
            "gamma": repr(power.gamma),
            "method": method,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
