"""Wire protocol: routes, response shaping, request parsing, cache keys.

:data:`ROUTES` is the one route table every deployment serves — the
daemon and the shard router alike — and :func:`shape_response` dresses
each payload for the wire dialect its path speaks: the ``/v1`` envelope,
or the legacy flat errors plus a ``Deprecation`` header.

Request bodies are JSON.  Task sets can arrive in any of three shapes —
a ``repro-taskset`` envelope (the :mod:`repro.io.taskio` file format), a
list of ``[release, deadline, work]`` / ``[release, deadline, work, name]``
rows, or a list of ``{"release": …, "deadline": …, "work": …}`` objects —
all validated through the :class:`~repro.core.task.Task` constructor so
malformed instances fail with the same errors as programmatic use.

:func:`canonical_plan_key` is the cache identity: a SHA-256 over the
*sorted* task tuples plus the platform parameters, so permutations of the
same task set (and any JSON field ordering) map to one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..core.task import Task, TaskSet
from ..engine import UnknownSolverError, resolve_name, solver_names
from ..io.taskio import taskset_from_json
from ..power.models import PolynomialPower
from .http11 import Raw

__all__ = [
    "API_VERSION",
    "ERROR_CODES",
    "LEGACY_PATHS",
    "ROUTES",
    "base_path",
    "no_route",
    "shape_response",
    "ProtocolError",
    "ScheduleRequest",
    "AdmitRequest",
    "OptimalRequest",
    "error_body",
    "flatten_legacy_error",
    "is_error_body",
    "v1_envelope",
    "parse_tasks_field",
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


def _meta(payload, shard, trace_id: str | None) -> dict:
    """The ``meta`` block every ``/v1`` response carries."""
    meta = {
        "api_version": API_VERSION,
        "solver": None,
        "shard": shard,
        "trace_id": trace_id,
    }
    if isinstance(payload, dict) and not is_error_body(payload):
        meta["solver"] = payload.get("solver") or payload.get("method")
        if payload.get("degraded_from"):
            meta["degraded_from"] = payload["degraded_from"]
    return meta


def shape_response(
    status: int, payload, path: str, shard, trace_id: str | None = None
) -> tuple:
    """Dress one payload for the wire dialect ``path`` speaks.

    Returns ``(status, payload, extra headers or None)``.  ``/v1``
    responses get the envelope (``result``/``error`` + ``meta``, whose
    ``shard`` names the process that answered); legacy responses get
    unified errors flattened back to the historical string-``error``
    shape plus a ``Deprecation`` header pointing at the versioned
    successor.  A :class:`~repro.service.http11.Raw` body (the Prometheus
    exposition, a forwarded reply) passes through untouched.
    """
    if isinstance(payload, Raw):
        return status, payload, None
    if path.startswith(_V1_PREFIX):
        return status, v1_envelope(payload, _meta(payload, shard, trace_id)), None
    if is_error_body(payload):
        payload = flatten_legacy_error(payload)
    extra = None
    if path in LEGACY_PATHS:
        extra = {
            "Deprecation": "true",
            "Link": f'</{API_VERSION}{path}>; rel="successor-version"',
        }
    return status, payload, extra


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
            return taskset_from_json(json.dumps(obj))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    if isinstance(obj, list):
        if not obj:
            raise ProtocolError("tasks list is empty")
        return TaskSet(_parse_task_row(row, i) for i, row in enumerate(obj))
    raise ProtocolError("tasks must be a list or a repro-taskset object")


def _get_number(body: dict, key: str, default, *, integer: bool = False):
    """A finite number from the body (an integral JSON number when ``integer``).

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and ``float(True)``
    is 1, so finiteness and type are checked here, not trusted.
    """
    value = body.get(key, default)
    if value is None:
        return None
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

    ``method`` keeps the client's spelling (echoed back in responses);
    ``solver`` is the canonical registry name used for dispatch, fusion,
    and cache identity — so ``der`` and ``subinterval-der`` share one
    cache entry.
    """

    tasks: TaskSet
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
        tasks = parse_tasks_field(body["tasks"])
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
            task = _parse_task_row(body["task"], 0)
        elif not reset and not peek:
            raise ProtocolError("missing required field 'task'")
        m = _get_number(body, "m", default_m, integer=True)
        if m < 1:
            raise ProtocolError(f"m must be >= 1, got {m}")
        f_max = _get_number(body, "f_max", default_f_max)
        if f_max is not None and f_max <= 0:
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
    dispatch decisions (e.g. arming the exact-solver timeout).
    """

    tasks: TaskSet
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
        tasks = parse_tasks_field(body["tasks"])
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


def canonical_order(task: Task):
    """Sort key of the canonical task ordering."""
    return (task.release, task.deadline, task.work, task.name)


def canonicalize_tasks(tasks: TaskSet) -> TaskSet:
    """The task set in canonical (sorted) order.

    Plans are order-invariant — the scheduler works on the set, not the
    sequence — so the service solves the canonical ordering and every
    permutation of a request shares one plan (and one cache entry).
    (The serving hot path sorts the ``Task`` sequence directly with
    :func:`canonical_order` instead, skipping this second ``TaskSet``
    construction.)
    """
    return TaskSet(sorted(tasks, key=canonical_order))


def canonical_plan_key(
    tasks, m: int, power: PolynomialPower, method: str
) -> str:
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
