"""The guarded-span contract: spans exist only when someone is listening.

Library code opens its optional spans with ``obs.traced``.  Traced, the
engine, the session and the pool worker emit their documented span
names; untraced, the same calls construct no ``Span`` at all.
"""

import time

import pytest

from repro.core import Task, TaskSet
from repro.core.incremental import ScheduleSession
from repro.engine import Platform, SolveRequest, open_session, register, resolve, solve
from repro.engine.registry import _REGISTRY
from repro.obs import context as obs
from repro.power import PolynomialPower
from repro.service.pool import _solve_solo

_ROWS = [(0.0, 10.0, 4.0), (2.0, 14.0, 5.0), (11.0, 20.0, 6.0)]
_POWER = PolynomialPower(alpha=3.0, static=0.1)


def _request() -> SolveRequest:
    return SolveRequest(
        tasks=TaskSet.from_tuples(_ROWS), platform=Platform(m=2, power=_POWER)
    )


def _pool_job(**over) -> dict:
    return {
        "tasks": [[r, d, c, f"t{k}"] for k, (r, d, c) in enumerate(_ROWS)],
        "m": 2,
        "alpha": 3.0,
        "static": 0.1,
        "method": "der",
        **over,
    }


def _by_name(spans: list[dict]) -> dict[str, dict]:
    return {sp["name"]: sp for sp in spans}


@pytest.fixture
def made(monkeypatch) -> list[str]:
    """Names of every ``Span`` constructed while the test runs."""
    names: list[str] = []

    class CountingSpan(obs.Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            names.append(self.name)

    monkeypatch.setattr(obs, "Span", CountingSpan)
    return names


@pytest.fixture
def crashing_solver():
    name = "optimal:test-traced-crash"

    @register(name)
    def _crash(request, options):
        raise RuntimeError("backend exploded")

    yield name
    _REGISTRY.pop(name, None)


class TestHelper:
    def test_untraced_yields_none(self, made):
        with obs.traced("x", a=1) as sp:
            assert sp is None
        assert made == []

    def test_traced_yields_the_span(self):
        with obs.capture() as spans:
            with obs.traced("x", a=1) as sp:
                sp.set("b", 2)
        (only,) = spans
        assert only["name"] == "x"
        assert only["attrs"] == {"a": 1, "b": 2}


class TestTraced:
    def test_solve_emits_engine_solver_and_validate(self):
        with obs.capture() as spans:
            solve("der", _request())
        names = _by_name(spans)
        engine = names["engine.solve"]
        assert engine["attrs"]["solver"] == "subinterval-der"
        assert "degraded_from" not in engine["attrs"]
        solver = names["solver:subinterval-der"]
        assert solver["parent_id"] == engine["span_id"]
        assert solver["attrs"]["n_tasks"] == len(_ROWS)
        assert names["engine.validate"]["parent_id"] == engine["span_id"]

    def test_degraded_solve_marks_the_engine_span(self, crashing_solver):
        with obs.capture() as spans:
            result = solve(crashing_solver, _request(), fallback="der")
        assert result.degraded
        names = _by_name(spans)
        engine = names["engine.solve"]
        assert engine["attrs"]["degraded_from"] == crashing_solver
        assert "RuntimeError" in engine["attrs"]["degraded_reason"]
        assert names[f"solver:{crashing_solver}"]["status"] == "error"
        assert names["solver:subinterval-der"]["status"] == "ok"

    def test_resolve_emits_resolve_then_validate(self):
        session = open_session("der", Platform(m=2, power=_POWER), tasks=_ROWS)
        with obs.capture() as spans:
            resolve(session)
        assert [sp["name"] for sp in spans] == ["engine.validate", "engine.resolve"]
        assert spans[0]["parent_id"] == spans[1]["span_id"]

    def test_session_delta_emits_one_span(self):
        session = ScheduleSession(2, _POWER, method="der", tasks=_ROWS[:2])
        with obs.capture() as spans:
            session.add_task(Task(*_ROWS[2]))
        (delta,) = spans
        assert delta["name"] == "session.delta"
        assert delta["attrs"]["op"] == "add_task"
        assert delta["attrs"]["touched"] >= 1

    def test_solo_pool_job_emits_pool_pack(self):
        carrier = {
            "trace_id": obs.new_trace_id(),
            "parent": "ab" * 8,
            "enqueued_at": time.time(),
        }
        result = _solve_solo(_pool_job(_trace=carrier))
        assert "schedule" in result
        names = _by_name(result["_spans"])
        assert {"batch.queue", "pool.solve", "pool.pack", "engine.solve"} <= set(names)
        assert names["pool.pack"]["parent_id"] == names["pool.solve"]["span_id"]


class TestUntraced:
    def test_solve_builds_no_span(self, made):
        solve("der", _request())
        assert made == []

    def test_degraded_solve_builds_no_span(self, made, crashing_solver):
        assert solve(crashing_solver, _request(), fallback="der").degraded
        assert made == []

    def test_resolve_builds_no_span(self, made):
        resolve(open_session("der", Platform(m=2, power=_POWER), tasks=_ROWS))
        assert made == []

    def test_session_delta_builds_no_span(self, made):
        session = ScheduleSession(2, _POWER, method="der", tasks=_ROWS[:2])
        session.add_task(Task(*_ROWS[2]))
        session.advance_to(1.0)
        assert made == []

    def test_solo_pool_job_builds_no_span(self, made):
        result = _solve_solo(_pool_job())
        assert "schedule" in result and "_spans" not in result
        assert made == []
