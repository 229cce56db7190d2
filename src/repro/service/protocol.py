"""Wire protocol: routes, response shaping, request parsing, cache keys.

:data:`ROUTES` is the one route table every deployment serves — the
daemon and the shard router alike — and :func:`shape_response` dresses
each payload for the wire dialect its path speaks (the ``/v1`` envelope,
or the legacy flat errors plus a ``Deprecation`` header) and encodes it.
A ``/schedule`` result is encoded once per solve as an
:class:`EncodedResult`, which every reply of it splices in.

Request bodies are JSON.  Task sets can arrive in any of three shapes —
a ``repro-taskset`` envelope (the :mod:`repro.io.taskio` file format), a
list of ``[release, deadline, work]`` / ``[release, deadline, work, name]``
rows, or a list of ``{"release": …, "deadline": …, "work": …}`` objects.
Each is read into :class:`TaskRow` tuples, validated by
:func:`~repro.core.task.check_task` (the checks
:class:`~repro.core.task.Task` runs), so malformed instances fail with the
same errors as programmatic use while a request builds no ``Task``.

A solve request keeps its rows sorted in canonical order, and
:meth:`ScheduleRequest.plan_key`, the cache identity, is a SHA-256 over
those rows' float64 bits and names plus the platform and solver: every
permutation of one task set (and any JSON field ordering) maps to one
cache entry, and the rows hashed are the rows the pool job solves.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

from ..core.schedule import Schedule
from ..core.task import Task, TaskSet, check_task
from ..engine import UnknownSolverError, resolve_name, solver_names
from ..io.schedio import schedule_to_json
from ..io.taskio import taskset_from_dict
from ..power.models import PolynomialPower
from .http11 import Raw

__all__ = [
    "API_VERSION",
    "ERROR_CODES",
    "LEGACY_PATHS",
    "ROUTES",
    "base_path",
    "no_route",
    "EncodedResult",
    "shape_response",
    "ProtocolError",
    "ScheduleRequest",
    "AdmitRequest",
    "OptimalRequest",
    "error_body",
    "flatten_legacy_error",
    "is_error_body",
    "v1_envelope",
    "TaskRow",
    "parse_task_rows",
    "canonical_order",
    "canonicalize_tasks",
    "canonical_plan_key",
    "schedule_methods",
    "optimal_solvers",
]

#: the one wire API version this server speaks under the ``/v1`` prefix
API_VERSION = "v1"

#: machine-readable error codes of the unified ``/v1`` error schema,
#: mapped to the HTTP status each one travels with
ERROR_CODES = {
    "bad_request": 400,
    "invalid_json": 400,
    "unknown_solver": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "overloaded": 429,
    "internal": 500,
    "shutting_down": 503,
    "abandoned": 503,
    "bad_gateway": 502,
    "deadline_exceeded": 504,
}


def error_body(code: str, message: str, detail: dict | None = None) -> dict:
    """The one error payload every endpoint produces.

    ``/v1`` routes ship it verbatim (inside the response envelope) as
    ``{"error": {"code", "message", "detail"?}}``; the legacy shims
    flatten it through :func:`flatten_legacy_error` so pre-v1 clients
    keep seeing the historical string-valued ``error`` field.
    """
    err: dict = {"code": code, "message": message}
    if detail:
        err["detail"] = detail
    return {"error": err}


def is_error_body(payload) -> bool:
    """True when ``payload`` is an :func:`error_body` product."""
    return isinstance(payload, dict) and isinstance(payload.get("error"), dict)


def flatten_legacy_error(payload: dict) -> dict:
    """Unified error → the historical flat shape of the unprefixed routes.

    ``{"error": "<message>", **detail}`` — detail keys (``max_inflight``,
    ``timeout_s``, …) land at the top level exactly where legacy clients
    and the pre-v1 test suite expect them.
    """
    err = payload["error"]
    out = {"error": err["message"]}
    for key, value in (err.get("detail") or {}).items():
        out.setdefault(key, value)
    return out


def v1_envelope(payload, meta: dict) -> dict:
    """Wrap one endpoint payload in the ``/v1`` response envelope.

    Successes become ``{"result": ..., "meta": ...}``; unified errors keep
    their ``error`` key alongside the same ``meta`` block, so every ``/v1``
    response — success or failure — carries the envelope.
    """
    if is_error_body(payload):
        return {"error": payload["error"], "meta": meta}
    return {"result": payload, "meta": meta}


#: the endpoints served both at ``/v1<base>`` and at the bare legacy path
_ENDPOINTS = (
    ("POST", "/schedule"),
    ("POST", "/admit"),
    ("POST", "/optimal"),
    ("GET", "/metrics"),
    ("GET", "/healthz"),
)

#: the bare legacy paths: deprecated shims of their ``/v1`` twins
LEGACY_PATHS = frozenset(base for _, base in _ENDPOINTS)

#: every ``(method, path)`` a deployment serves
ROUTES = frozenset(
    [
        *_ENDPOINTS,
        *((method, f"/{API_VERSION}{base}") for method, base in _ENDPOINTS),
        ("GET", f"/{API_VERSION}/solvers"),
    ]
)

_KNOWN_PATHS = frozenset(path for _, path in ROUTES)
_V1_PREFIX = f"/{API_VERSION}/"


def base_path(path: str) -> str:
    """A path without its version prefix: ``/v1/schedule`` → ``/schedule``.

    The endpoint a route names, whichever dialect it speaks: the daemon
    and the router dispatch on it, ``repro trace`` counts by it.
    """
    return path[len(_V1_PREFIX) - 1:] if path.startswith(_V1_PREFIX) else path


def no_route(method: str, path: str) -> tuple[int, dict]:
    """The answer to a request outside :data:`ROUTES`: 405 for a known
    path under another method, else 404."""
    if path in _KNOWN_PATHS:
        return 405, error_body("method_not_allowed", f"no route {method} {path}")
    return 404, error_body("not_found", f"no route {method} {path}")


def _meta(shard, trace_id: str | None, solver=None, degraded_from=None) -> dict:
    """The ``meta`` block every ``/v1`` response carries."""
    meta = {
        "api_version": API_VERSION,
        "solver": solver,
        "shard": shard,
        "trace_id": trace_id,
    }
    if degraded_from:
        meta["degraded_from"] = degraded_from
    return meta


def _solver_fields(payload) -> tuple:
    """``(solver, degraded_from)`` of a success payload: what ``meta`` reads."""
    if isinstance(payload, dict) and not is_error_body(payload):
        return (
            payload.get("solver") or payload.get("method"),
            payload.get("degraded_from"),
        )
    return None, None


def _encode(payload) -> bytes:
    return json.dumps(payload).encode()


class EncodedResult(NamedTuple):
    """A ``/schedule`` result as JSON bytes, encoded once per solve.

    The pool worker that solved the result encodes it; the plan cache
    stores it, and :func:`shape_response` splices it into every reply of
    that result: the request's ``cache_hit`` flag goes in as the result's
    last key, and under ``/v1`` the bytes become the envelope's
    ``result``.  The reply is byte-for-byte ``json.dumps`` of the dict
    ``{**result, "cache_hit": ...}`` (enveloped under ``/v1``).
    ``solver`` and ``degraded_from`` are kept for the ``meta`` block.
    """

    data: bytes
    solver: str | None
    degraded_from: str | None
    cache_hit: bool = False

    @classmethod
    def of(cls, result: dict, schedule: Schedule | None = None) -> EncodedResult:
        """Encode a result dict, and ``schedule`` as its last key.

        The bytes are ``json.dumps({**result, "schedule":
        schedule_to_dict(schedule)})``; the schedule's document is written
        from its columns (:func:`~repro.io.schedio.schedule_to_json`).
        """
        # the splice appends cache_hit before the closing brace
        assert result and "cache_hit" not in result and "_spans" not in result
        data = _encode(result)
        if schedule is not None:
            document = schedule_to_json(schedule, indent=None).encode()
            data = b"".join((data[:-1], b', "schedule": ', document, b"}"))
        return cls(data, *_solver_fields(result))


_CACHE_HIT = {True: b', "cache_hit": true}', False: b', "cache_hit": false}'}


def shape_response(
    status: int, payload, path: str, shard, trace_id: str | None = None
) -> tuple:
    """Dress one payload for the wire dialect ``path`` speaks and encode it.

    Returns ``(status, Raw body, extra headers or None)``.  ``/v1``
    responses get the envelope (``result``/``error`` + ``meta``, whose
    ``shard`` names the process that answered); legacy responses get
    unified errors flattened back to the historical string-``error``
    shape plus a ``Deprecation`` header pointing at the versioned
    successor.  An :class:`EncodedResult` is spliced, not re-encoded.  A
    :class:`~repro.service.http11.Raw` body (the Prometheus exposition, a
    forwarded reply) passes through untouched.
    """
    if isinstance(payload, Raw):
        return status, payload, None
    v1 = path.startswith(_V1_PREFIX)
    if isinstance(payload, EncodedResult):
        parts = [memoryview(payload.data)[:-1], _CACHE_HIT[payload.cache_hit]]
        if v1:
            meta = _meta(shard, trace_id, payload.solver, payload.degraded_from)
            parts = [b'{"result": ', *parts, b', "meta": ', _encode(meta), b"}"]
        data = b"".join(parts)
    elif v1:
        meta = _meta(shard, trace_id, *_solver_fields(payload))
        data = _encode(v1_envelope(payload, meta))
    else:
        data = _encode(
            flatten_legacy_error(payload) if is_error_body(payload) else payload
        )
    extra = None
    if path in LEGACY_PATHS:
        extra = {
            "Deprecation": "true",
            "Link": f'</{API_VERSION}{path}>; rel="successor-version"',
        }
    return status, Raw(data, "application/json"), extra


def schedule_methods() -> tuple[str, ...]:
    """Names ``POST /schedule`` accepts: every registered solver."""
    return solver_names()


def optimal_solvers() -> tuple[str, ...]:
    """Registry names ``POST /optimal`` accepts (exact solvers only)."""
    return tuple(n for n in solver_names() if n.startswith("optimal:"))


def _resolve_solver(name, *, field: str, optimal_only: bool) -> str:
    """Canonical registry name for a request's solver field, or a 400.

    Unknown names answer with the full menu of registered solvers so API
    users can self-correct — never a 500 from deep inside a pool worker.
    """
    if not isinstance(name, str):
        raise ProtocolError(f"{field} must be a string, got {name!r}")
    menu = optimal_solvers() if optimal_only else schedule_methods()
    try:
        canonical = resolve_name(name)
    except UnknownSolverError as exc:
        raise ProtocolError(
            f"unknown {field} {name!r}; registered solvers: {', '.join(menu)} "
            f"(discover the full catalog via GET /v1/solvers)",
            code="unknown_solver",
            detail={
                "field": field,
                "requested": name,
                "solvers": list(menu),
                "discovery": "GET /v1/solvers",
            },
        ) from exc
    if optimal_only and not canonical.startswith("optimal:"):
        raise ProtocolError(
            f"{field} {name!r} is not an exact solver; this endpoint accepts: "
            f"{', '.join(menu)} (discover the full catalog via GET /v1/solvers)",
            code="unknown_solver",
            detail={
                "field": field,
                "requested": name,
                "solvers": list(menu),
                "discovery": "GET /v1/solvers",
            },
        )
    return canonical


class ProtocolError(ValueError):
    """A malformed request body; maps to HTTP 400.

    Carries the machine-readable ``code`` (and optional ``detail`` dict)
    that :func:`error_body` ships on the ``/v1`` error schema.
    """

    def __init__(
        self, message: str, *, code: str = "bad_request", detail: dict | None = None
    ):
        super().__init__(message)
        self.code = code
        self.detail = detail


class TaskRow(NamedTuple):
    """One validated task of a request: what a :class:`Task` holds.

    Rows sort in canonical order as plain tuples, and the pool worker
    builds the solve's ``Task`` objects from them.
    """

    release: float
    deadline: float
    work: float
    name: str = ""


def _parse_task_row(row, index: int) -> TaskRow:
    listed = isinstance(row, (list, tuple)) and len(row) in (3, 4)
    if not listed and not isinstance(row, dict):
        raise ProtocolError(
            f"task #{index} must be a [release, deadline, work(, name)] row "
            f"or an object with those fields"
        )
    try:
        if listed:
            name = str(row[3]) if len(row) == 4 else ""
            release, deadline, work = float(row[0]), float(row[1]), float(row[2])
        else:
            release = float(row["release"])
            deadline = float(row["deadline"])
            work = float(row["work"])
            name = str(row.get("name", ""))
        check_task(release, deadline, work)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"task #{index} is malformed: {exc}") from exc
    return TaskRow(release, deadline, work, name)


def parse_task_rows(obj) -> list[TaskRow]:
    """The ``tasks`` field of a request as validated rows, in request order."""
    if isinstance(obj, dict):
        # the on-disk envelope format, embedded verbatim
        try:
            tasks = taskset_from_dict(obj)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return [TaskRow(t.release, t.deadline, t.work, t.name) for t in tasks]
    if isinstance(obj, list):
        if not obj:
            raise ProtocolError("tasks list is empty")
        return [_parse_task_row(row, i) for i, row in enumerate(obj)]
    raise ProtocolError("tasks must be a list or a repro-taskset object")


def _get_number(body: dict, key: str, default, *, integer: bool = False):
    """A finite number from the body (an integral JSON number when ``integer``).

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and ``float(True)``
    is 1, so finiteness and type are checked here, not trusted.
    """
    value = body.get(key, default)
    if integer:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ProtocolError(f"{key} must be an integer, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ProtocolError(f"{key} must be a finite number, got {value!r}")
    return number


def _power_from(body: dict, default_alpha: float, default_static: float) -> PolynomialPower:
    alpha = _get_number(body, "alpha", default_alpha)
    static = _get_number(body, "static", default_static)
    gamma = _get_number(body, "gamma", 1.0)
    try:
        return PolynomialPower(alpha=alpha, static=static, gamma=gamma)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


@dataclass(frozen=True)
class ScheduleRequest:
    """Parsed ``POST /schedule`` body.

    ``tasks`` holds the request's rows sorted in canonical order: the
    pool job solves them and :meth:`plan_key` hashes them.  ``method``
    keeps the client's spelling (echoed back in responses); ``solver``
    is the canonical registry name used for dispatch, fusion, and cache
    identity — so ``der`` and ``subinterval-der`` share one cache entry.
    """

    tasks: list[TaskRow]
    m: int
    power: PolynomialPower
    method: str
    include_schedule: bool
    solver: str = "subinterval-der"

    @classmethod
    def from_body(
        cls,
        body,
        *,
        default_m: int = 4,
        default_alpha: float = 3.0,
        default_static: float = 0.0,
    ) -> "ScheduleRequest":
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        if "tasks" not in body:
            raise ProtocolError("missing required field 'tasks'")
        tasks = sorted(parse_task_rows(body["tasks"]))
        m = _get_number(body, "m", default_m, integer=True)
        if m < 1:
            raise ProtocolError(f"m must be >= 1, got {m}")
        method = body.get("method", "der")
        solver = _resolve_solver(method, field="method", optimal_only=False)
        include = body.get("include_schedule", True)
        if not isinstance(include, bool):
            raise ProtocolError("include_schedule must be a boolean")
        return cls(
            tasks=tasks,
            m=m,
            power=_power_from(body, default_alpha, default_static),
            method=method,
            include_schedule=include,
            solver=solver,
        )

    def plan_key(self) -> str:
        """The plan-cache key: :func:`canonical_plan_key` of this request,
        from its rows as sorted, plus ``:light`` without the schedule."""
        key = _rows_key(self.tasks, self.m, self.power, self.solver)
        return key if self.include_schedule else key + ":light"


@dataclass(frozen=True)
class AdmitRequest:
    """Parsed ``POST /admit`` body: one task for the admission controller.

    Platform knobs (``m``/``alpha``/``static``/``gamma``/``f_max``) are
    optional overrides of the service defaults; the server keeps one
    admission session per distinct platform, so requests naming different
    platforms admit into independent committed plans.

    ``peek=True`` asks for a read-only snapshot of the platform's current
    committed plan (boundaries, allocation matrix, energy) without
    admitting anything — the bit-equality probe the sharding equivalence
    checks compare across deployments.
    """

    task: Task | None
    reset: bool
    m: int
    power: PolynomialPower
    f_max: float | None
    peek: bool = False

    @classmethod
    def from_body(
        cls,
        body,
        *,
        default_m: int = 4,
        default_alpha: float = 3.0,
        default_static: float = 0.0,
        default_f_max: float | None = None,
    ) -> "AdmitRequest":
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        reset = body.get("reset", False)
        if not isinstance(reset, bool):
            raise ProtocolError("reset must be a boolean")
        peek = body.get("peek", False)
        if not isinstance(peek, bool):
            raise ProtocolError("peek must be a boolean")
        if peek and (reset or "task" in body):
            raise ProtocolError("peek is read-only: omit 'task' and 'reset'")
        task = None
        if "task" in body:
            task = Task(*_parse_task_row(body["task"], 0))
        elif not reset and not peek:
            raise ProtocolError("missing required field 'task'")
        m = _get_number(body, "m", default_m, integer=True)
        if m < 1:
            raise ProtocolError(f"m must be >= 1, got {m}")
        f_max = body.get("f_max", default_f_max)
        if f_max is not None:  # null means uncapped
            f_max = _get_number(body, "f_max", default_f_max)
            if f_max <= 0:
                raise ProtocolError(f"f_max must be positive, got {f_max}")
        return cls(
            task=task,
            reset=reset,
            m=m,
            power=_power_from(body, default_alpha, default_static),
            f_max=f_max,
            peek=peek,
        )


@dataclass(frozen=True)
class OptimalRequest:
    """Parsed ``POST /optimal`` body.

    ``solver`` keeps the client's spelling (echoed back in responses) but
    is validated against the registry at parse time, so unknown backends
    are a 400 with the menu of ``optimal:*`` names — never a worker error.
    ``canonical_solver`` is the resolved registry name the server uses for
    dispatch decisions (e.g. arming the exact-solver timeout).  ``tasks``
    holds the request's rows sorted in canonical order, as the job
    solves them.
    """

    tasks: list[TaskRow]
    m: int
    power: PolynomialPower
    solver: str
    canonical_solver: str = "optimal:interior-point"

    @classmethod
    def from_body(
        cls,
        body,
        *,
        default_m: int = 4,
        default_alpha: float = 3.0,
        default_static: float = 0.0,
    ) -> "OptimalRequest":
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        if "tasks" not in body:
            raise ProtocolError("missing required field 'tasks'")
        tasks = sorted(parse_task_rows(body["tasks"]))
        m = _get_number(body, "m", default_m, integer=True)
        if m < 1:
            raise ProtocolError(f"m must be >= 1, got {m}")
        solver = body.get("solver", "interior-point")
        canonical = _resolve_solver(solver, field="solver", optimal_only=True)
        return cls(
            tasks=tasks,
            m=m,
            power=_power_from(body, default_alpha, default_static),
            solver=solver,
            canonical_solver=canonical,
        )


def canonical_order(task):
    """Sort key of the canonical task ordering: the task as a
    :class:`TaskRow` tuple, by which rows sort themselves."""
    return (task.release, task.deadline, task.work, task.name)


def canonicalize_tasks(tasks: TaskSet) -> TaskSet:
    """The task set in canonical (sorted) order.

    Plans are order-invariant — the scheduler works on the set, not the
    sequence — so the service solves the canonical ordering and every
    permutation of a request shares one plan (and one cache entry).
    """
    return TaskSet(sorted(tasks, key=canonical_order))


def canonical_plan_key(tasks, m: int, power: PolynomialPower, method: str) -> str:
    """SHA-256 cache key of ``tasks`` (``Task`` objects or rows), invariant
    to task order and JSON field order.

    The tasks are hashed in canonical order by their float64 bits and
    names, so bit-identical instances always share a key and nearby but
    different floats never do.  The one exception to order invariance:
    rows that tie as floats but differ in the sign of a zero keep their
    request order, so two such orders get two keys (a miss, never a wrong
    entry).
    """
    return _rows_key(sorted(map(canonical_order, tasks)), m, power, method)


def _rows_key(rows, m: int, power: PolynomialPower, method: str) -> str:
    """SHA-256 over ``rows`` in the order given, with the platform and solver.

    The JSON head fixes the row count (by the names) and so the length of
    the float block that follows it: one float64 per release, deadline
    and work, then α, p₀ and γ.
    """
    releases, deadlines, works, names = zip(*rows)
    digest = hashlib.sha256(json.dumps([int(m), method, names]).encode())
    digest.update(
        struct.pack(
            f"<{3 * len(names) + 3}d",
            *releases,
            *deadlines,
            *works,
            power.alpha,
            power.static,
            power.gamma,
        )
    )
    return digest.hexdigest()
