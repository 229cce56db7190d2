"""Name-keyed solver registry with the shared post-solve validation hook.

A *solver* is a callable ``fn(request, options) -> SolveResult`` registered
under a stable name.  :func:`solve` is the single dispatch point every
frontend uses: it resolves the name (including the legacy ``der``/``even``
aliases the wire protocol has always accepted), times the solver, and runs
the produced schedule through the simulator's invariant validator so no
frontend can receive a silently-broken schedule.

Dispatch is also where *graceful degradation* lives: ``solve(name, req,
timeout=…, fallback=…)`` bounds the solver's wall time and, when it hangs
past the deadline or crashes, re-solves with the fallback heuristic and
records the degradation on the :class:`SolveResult` (``degraded_from`` /
``degraded_reason``) instead of propagating a hang or a 500 to the caller.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import replace
from typing import Callable, Mapping

from ..obs import context as obs
from .contract import SolveRequest, SolveResult

__all__ = [
    "UnknownSolverError",
    "SolverTimeoutError",
    "register",
    "get_solver",
    "resolve_name",
    "solver_names",
    "solver_catalog",
    "solve",
]

SolverFn = Callable[[SolveRequest, Mapping], SolveResult]

_REGISTRY: dict[str, SolverFn] = {}

#: Historical wire/CLI spellings mapped onto canonical registry names.
ALIASES: dict[str, str] = {
    "der": "subinterval-der",
    "even": "subinterval-even",
    "interior-point": "optimal:interior-point",
    "projected-gradient": "optimal:projected-gradient",
    "SLSQP": "optimal:slsqp",
    "trust-constr": "optimal:trust-constr",
}


class SolverTimeoutError(TimeoutError):
    """A solver exceeded its deadline and no fallback was available."""

    def __init__(self, name: str, timeout: float):
        self.name = name
        self.timeout = timeout
        super().__init__(
            f"solver {name!r} exceeded its {timeout:g}s deadline"
        )


class UnknownSolverError(ValueError):
    """Raised when a solver name matches nothing in the registry."""

    def __init__(self, name: str):
        self.name = name
        self.known = solver_names()
        super().__init__(
            f"unknown solver {name!r}; registered solvers: "
            f"{', '.join(self.known)}"
        )


def register(name: str) -> Callable[[SolverFn], SolverFn]:
    """Decorator: register ``fn`` under ``name`` (must be unique)."""

    def deco(fn: SolverFn) -> SolverFn:
        if name in _REGISTRY:
            raise ValueError(f"solver {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def solver_names() -> tuple[str, ...]:
    """All registered canonical solver names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_name(name: str) -> str:
    """Canonical registry name for ``name`` (resolving legacy aliases)."""
    if name in _REGISTRY:
        return name
    alias = ALIASES.get(name)
    if alias is not None and alias in _REGISTRY:
        return alias
    raise UnknownSolverError(name)


def get_solver(name: str) -> SolverFn:
    """The registered solver callable for ``name`` (aliases resolved)."""
    return _REGISTRY[resolve_name(name)]


def _run_bounded(fn: SolverFn, request: SolveRequest, options: Mapping, timeout: float):
    """Run ``fn`` on a daemon thread, abandoning it past ``timeout`` seconds.

    Python cannot forcibly stop a thread, so on timeout the solver thread
    is *abandoned*: it keeps whatever CPU it is burning but its result is
    discarded, and being a daemon it never blocks interpreter exit.  Inside
    a pool worker the supervisor will eventually recycle the whole process.
    """
    outcome: dict = {}
    done = threading.Event()
    # carry the caller's trace context onto the solver thread, so events
    # the solver records (e.g. per-centering ``ip.center``) land on the
    # active solver span instead of vanishing into an empty context
    ctx = contextvars.copy_context()

    def target() -> None:
        try:
            outcome["result"] = ctx.run(fn, request, options)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(
        target=target, daemon=True, name="repro-bounded-solve"
    )
    thread.start()
    if not done.wait(timeout):
        raise TimeoutError
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def _validated(result: SolveResult) -> SolveResult:
    """Apply the shared §III-C invariant check to a normalized result."""
    from ..sim.validate import validate_schedule

    violations = tuple(
        validate_schedule(
            result.schedule,
            check_completion=not result.deadline_misses,
        )
    )
    return replace(
        result,
        violations=violations,
        feasible=result.feasible and not violations,
    )


#: Canonical solver names whose allocation policy an incremental
#: :class:`~repro.core.incremental.ScheduleSession` drives (the catalog's
#: ``session`` field).  Only the vectorized subinterval heuristics qualify —
#: the exact solvers and baselines have no delta structure to exploit.
SESSION_SOLVERS = frozenset({"subinterval-even", "subinterval-der"})


def solver_catalog() -> tuple[dict, ...]:
    """Machine-readable registry listing (the ``GET /v1/solvers`` payload).

    One entry per canonical solver name: the legacy aliases that map
    to it, whether it is an exact ``optimal:*`` backend, and whether it
    supports incremental sessions.  Clients should consume this instead of
    hard-coding solver menus.
    """
    alias_map: dict[str, list[str]] = {}
    for alias, target in ALIASES.items():
        alias_map.setdefault(target, []).append(alias)
    return tuple(
        {
            "name": name,
            "aliases": sorted(alias_map.get(name, [])),
            "optimal_only": name.startswith("optimal:"),
            "session": name in SESSION_SOLVERS,
        }
        for name in solver_names()
    )


def solve(
    name: str,
    request: SolveRequest,
    *,
    validate: bool = True,
    timeout: float | None = None,
    fallback: str | None = None,
    **options,
) -> SolveResult:
    """Run one registered solver and normalize its result.

    Keyword ``options`` are merged over ``request.options`` (call-site
    options win) and handed to the solver.  With ``validate=True`` (the
    default) the produced schedule is checked against every §III-C
    invariant; violations land in ``result.violations`` and clear
    ``result.feasible`` rather than raising, so callers can surface them.
    Work-completion checking is skipped when the solver itself reported
    deadline misses (those schedules legitimately complete less work).

    ``timeout`` bounds the solver's wall time (seconds; ``None`` leaves it
    unbounded).  A solver that outlives its deadline — or raises — degrades
    to ``fallback`` when one is given: the fallback solver runs instead and
    the result carries ``degraded_from``/``degraded_reason`` so callers can
    surface the degradation rather than a hang or an opaque error.  With no
    fallback, a timeout raises :class:`SolverTimeoutError` and solver
    errors propagate unchanged.  ``fallback`` options are the same merged
    ``options`` minus solver-specific keys the fallback cannot consume
    (``materialize``/``config``), and the fallback itself is never bounded
    (the registered heuristics are polynomial-time).
    """
    canonical = resolve_name(name)
    fn = _REGISTRY[canonical]
    merged: dict = dict(request.options)
    merged.update(options)
    fallback_canonical = (
        resolve_name(fallback) if fallback is not None else None
    )

    def run(solver_name: str, solver_fn: SolverFn, opts: Mapping, bound):
        with obs.traced(f"solver:{solver_name}", n_tasks=len(request.tasks)):
            if bound is None:
                return solver_fn(request, opts)
            return _run_bounded(solver_fn, request, opts, bound)

    with obs.traced("engine.solve", solver=canonical) as engine_sp:
        t0 = time.perf_counter()
        degraded_reason: str | None = None
        try:
            raw = run(canonical, fn, merged, timeout)
        except TimeoutError:
            if fallback_canonical is None or fallback_canonical == canonical:
                raise SolverTimeoutError(canonical, timeout) from None
            degraded_reason = f"timeout after {timeout:g}s"
        except Exception as exc:  # noqa: BLE001 - degraded to the fallback below
            if fallback_canonical is None or fallback_canonical == canonical:
                raise
            degraded_reason = f"{type(exc).__name__}: {exc}"
        if degraded_reason is not None:
            fb_options = {
                k: v
                for k, v in merged.items()
                if k not in ("materialize", "config")
            }
            raw = run(fallback_canonical, _REGISTRY[fallback_canonical], fb_options, None)
            wall = time.perf_counter() - t0
            result = replace(
                raw,
                solver=fallback_canonical,
                wall_time_s=wall,
                degraded_from=canonical,
                degraded_reason=degraded_reason,
            )
            if engine_sp is not None:
                engine_sp.set("degraded_from", canonical)
                engine_sp.set("degraded_reason", degraded_reason)
        else:
            wall = time.perf_counter() - t0
            result = replace(raw, solver=canonical, wall_time_s=wall)
        if validate and result.schedule is not None:
            with obs.traced("engine.validate"):
                result = _validated(result)
    return result
