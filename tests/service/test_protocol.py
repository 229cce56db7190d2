"""Unit tests for request parsing and validation."""

import json

import pytest

from repro.core import Task, TaskSet
from repro.io import taskset_to_json
from repro.service.protocol import (
    AdmitRequest,
    OptimalRequest,
    ProtocolError,
    ScheduleRequest,
    TaskRow,
    parse_task_rows,
)

_ROWS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0, "named"]]


class TestTasksField:
    def test_row_lists(self):
        tasks = parse_task_rows(_ROWS)
        assert len(tasks) == 2
        assert tasks[1].name == "named"

    def test_object_rows(self):
        tasks = parse_task_rows(
            [{"release": 0, "deadline": 5, "work": 2, "name": "t"}]
        )
        assert tasks[0] == TaskRow(0.0, 5.0, 2.0, name="t")

    def test_envelope_form(self):
        ts = TaskSet([Task(0.0, 4.0, 1.0)])
        envelope = json.loads(taskset_to_json(ts))
        assert parse_task_rows(envelope) == [TaskRow(0.0, 4.0, 1.0)]

    def test_rejects_empty_list(self):
        with pytest.raises(ProtocolError, match="empty"):
            parse_task_rows([])

    def test_rejects_bad_row_shape(self):
        with pytest.raises(ProtocolError, match="task #0"):
            parse_task_rows([[1.0, 2.0]])

    def test_rejects_non_list(self):
        with pytest.raises(ProtocolError, match="tasks must be"):
            parse_task_rows("nope")

    def test_task_constructor_errors_become_protocol_errors(self):
        with pytest.raises(ProtocolError, match="task #0"):
            parse_task_rows([[5.0, 1.0, 2.0]])  # deadline before release


class TestScheduleRequest:
    def test_defaults_applied(self):
        req = ScheduleRequest.from_body(
            {"tasks": _ROWS}, default_m=6, default_alpha=2.5, default_static=0.2
        )
        assert req.m == 6
        assert req.power.alpha == 2.5
        assert req.power.static == 0.2
        assert req.method == "der"
        assert req.include_schedule is True

    def test_explicit_fields_win(self):
        req = ScheduleRequest.from_body(
            {"tasks": _ROWS, "m": 2, "alpha": 3.0, "static": 0.0,
             "method": "online", "include_schedule": False}
        )
        assert (req.m, req.method, req.include_schedule) == (2, "online", False)
        assert ScheduleRequest.from_body({"tasks": _ROWS, "m": 2.0}).m == 2

    def test_missing_tasks(self):
        with pytest.raises(ProtocolError, match="tasks"):
            ScheduleRequest.from_body({"m": 2})

    def test_bad_method(self):
        with pytest.raises(ProtocolError, match="method"):
            ScheduleRequest.from_body({"tasks": _ROWS, "method": "magic"})

    def test_bad_m(self):
        for m in (0, 2.7, True, float("nan"), "2.0", "2"):
            with pytest.raises(ProtocolError, match="m must be"):
                ScheduleRequest.from_body({"tasks": _ROWS, "m": m})

    def test_non_numeric_alpha(self):
        # json.loads parses the NaN and Infinity literals
        for alpha in ("three", float("nan"), float("inf"), True):
            with pytest.raises(ProtocolError, match="alpha"):
                ScheduleRequest.from_body({"tasks": _ROWS, "alpha": alpha})

    def test_invalid_power_parameters(self):
        with pytest.raises(ProtocolError, match="alpha"):
            ScheduleRequest.from_body({"tasks": _ROWS, "alpha": 1.0})

    def test_non_object_body(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            ScheduleRequest.from_body([1, 2, 3])


class TestAdmitRequest:
    def test_task_row(self):
        req = AdmitRequest.from_body({"task": [0.0, 5.0, 2.0]})
        assert req.task == Task(0.0, 5.0, 2.0)
        assert req.reset is False

    def test_reset_only(self):
        req = AdmitRequest.from_body({"reset": True})
        assert req.task is None and req.reset is True

    def test_reset_plus_task(self):
        req = AdmitRequest.from_body({"reset": True, "task": [0.0, 5.0, 2.0]})
        assert req.task is not None and req.reset is True

    def test_missing_task(self):
        with pytest.raises(ProtocolError, match="task"):
            AdmitRequest.from_body({})

    def test_bad_platform_numbers(self):
        for field in ({"f_max": float("nan")}, {"f_max": float("inf")},
                      {"static": float("nan")}, {"m": 2.5}):
            with pytest.raises(ProtocolError, match=next(iter(field))):
                AdmitRequest.from_body({"task": [0.0, 5.0, 2.0], **field})


class TestOptimalRequest:
    def test_solver_default_and_choices(self):
        req = OptimalRequest.from_body({"tasks": _ROWS})
        assert req.solver == "interior-point"
        with pytest.raises(ProtocolError, match="solver"):
            OptimalRequest.from_body({"tasks": _ROWS, "solver": "simplex"})
