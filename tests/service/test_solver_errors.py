"""Unknown-solver handling: a 400 with the registry menu, never a 500.

Satellite of the engine-registry refactor: the protocol layer resolves
solver names against the registry at parse time, so a typo'd ``method`` or
``solver`` is rejected before a job ever reaches a pool worker — and the
error body tells the client exactly which names are registered.  The same
resolution is what makes every baseline and exact backend servable over
``POST /schedule`` with no endpoint-specific code.
"""

import pytest

from repro.engine import solver_names
from repro.service.http11 import request_once
from repro.service.protocol import (
    OptimalRequest,
    ProtocolError,
    ScheduleRequest,
    optimal_solvers,
    schedule_methods,
)
from tests.conftest import run_with_service

_TASKS = [[0.0, 10.0, 4.0], [2.0, 14.0, 5.0], [11.0, 20.0, 6.0]]


class TestProtocolRejection:
    def test_schedule_methods_mirror_the_registry(self):
        assert schedule_methods() == solver_names()
        assert optimal_solvers() == tuple(
            n for n in solver_names() if n.startswith("optimal:")
        )

    def test_unknown_method_lists_registered_names(self):
        with pytest.raises(ProtocolError) as err:
            ScheduleRequest.from_body({"tasks": _TASKS, "method": "warp-drive"})
        message = str(err.value)
        assert "warp-drive" in message
        for name in solver_names():
            assert name in message

    def test_non_string_method_is_rejected(self):
        with pytest.raises(ProtocolError, match="must be a string"):
            ScheduleRequest.from_body({"tasks": _TASKS, "method": 7})

    def test_unknown_optimal_solver_lists_exact_backends(self):
        with pytest.raises(ProtocolError) as err:
            OptimalRequest.from_body({"tasks": _TASKS, "solver": "simplex"})
        message = str(err.value)
        for name in optimal_solvers():
            assert name in message

    def test_heuristic_on_optimal_endpoint_is_rejected(self):
        with pytest.raises(ProtocolError, match="not an exact solver"):
            OptimalRequest.from_body({"tasks": _TASKS, "solver": "edf"})

    def test_aliases_still_parse(self):
        req = ScheduleRequest.from_body({"tasks": _TASKS, "method": "der"})
        assert req.method == "der"
        assert req.solver == "subinterval-der"


class TestHttp400:
    def test_unknown_method_is_a_400_with_the_menu(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/schedule",
                {"tasks": _TASKS, "method": "warp-drive"},
            )
            assert status == 400
            assert "warp-drive" in body["error"]
            for name in solver_names():
                assert name in body["error"]
            # nothing reached the solver pool
            assert service.dispatcher.dispatch_count == 0

        run_with_service(scenario)

    def test_unknown_optimal_solver_is_a_400(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/optimal",
                {"tasks": _TASKS, "solver": "simplex"},
            )
            assert status == 400
            assert "optimal:interior-point" in body["error"]
            assert service.dispatcher.dispatch_count == 0

        run_with_service(scenario)


class TestRegistryServable:
    def test_baselines_and_exact_backends_over_schedule_endpoint(self):
        """Every registry name is servable with no endpoint-specific code."""

        async def scenario(service):
            for method, kind in (
                ("edf", "EDF"),
                ("naive", "stretch"),
                ("yds", "YDS"),
                ("optimal:interior-point", "optimal"),
            ):
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule",
                    {"tasks": _TASKS, "m": 2, "method": method},
                )
                assert status == 200, body
                assert body["kind"] == kind
                assert body["method"] == method
                assert body["energy"] > 0
                assert "schedule" in body

        run_with_service(scenario)

    def test_practical_over_schedule_endpoint(self):
        """The discrete-frequency solver answers 200 with or without its
        schedule, and the schedule carries the operating-point table."""
        from repro.io.schedio import schedule_from_dict
        from repro.power.xscale import xscale_frequency_set

        fset = xscale_frequency_set()

        async def scenario(service):
            for include in (True, False):
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/v1/schedule",
                    {"tasks": _TASKS, "m": 2, "method": "practical",
                     "include_schedule": include},
                )
                assert status == 200, body
                result = body["result"]
                assert result["kind"] == "practical"
                assert result["energy"] > 0
                assert ("schedule" in result) is include
                if include:
                    schedule = schedule_from_dict(result["schedule"])
                    power = schedule.power
                    assert power.frequencies.tolist() == fset.frequencies.tolist()
                    assert power.powers.tolist() == fset.powers.tolist()
                    assert power.continuous_fit == fset.continuous_fit
                    assert schedule.total_energy() == result["energy"]

        run_with_service(scenario)
