"""Unit tests for task-set serialization."""

import json

import pytest

from repro.core import Task, TaskSet
from repro.io import (
    load_taskset,
    save_taskset,
    taskset_from_csv,
    taskset_from_dict,
    taskset_from_json,
    taskset_to_csv,
    taskset_to_dict,
    taskset_to_json,
)


@pytest.fixture
def tasks():
    return TaskSet(
        [Task(0.0, 10.0, 8.0, name="alpha"), Task(2.5, 18.0, 14.0), Task(4.0, 16.0, 8.0)]
    )


class TestJson:
    def test_roundtrip(self, tasks):
        assert taskset_from_json(taskset_to_json(tasks)) == tasks

    def test_names_preserved(self, tasks):
        out = taskset_from_json(taskset_to_json(tasks))
        assert out[0].name == "alpha"
        assert out[1].name == ""

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro-taskset"):
            taskset_from_json('{"format": "other", "version": 1, "tasks": []}')

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            taskset_from_json('{"format": "repro-taskset", "version": 99, "tasks": [{}]}')

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no tasks"):
            taskset_from_json('{"format": "repro-taskset", "version": 1, "tasks": []}')

    def test_rejects_malformed_task(self):
        doc = '{"format": "repro-taskset", "version": 1, "tasks": [{"release": 0}]}'
        with pytest.raises(ValueError, match="malformed"):
            taskset_from_json(doc)

    def test_invalid_task_values_propagate(self):
        doc = (
            '{"format": "repro-taskset", "version": 1, '
            '"tasks": [{"release": 5, "deadline": 1, "work": 1}]}'
        )
        with pytest.raises(ValueError, match="deadline"):
            taskset_from_json(doc)


class TestDict:
    def test_roundtrip(self, tasks):
        assert taskset_from_dict(taskset_to_dict(tasks)) == tasks

    def test_json_is_the_encoded_document(self, tasks):
        assert taskset_to_json(tasks) == json.dumps(taskset_to_dict(tasks), indent=2)
        assert json.loads(taskset_to_json(tasks, indent=None)) == taskset_to_dict(tasks)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"format": "other", "version": 1, "tasks": []},
            {"format": "repro-taskset", "version": 99, "tasks": [{}]},
            {"format": "repro-taskset", "version": 1, "tasks": []},
            {"format": "repro-taskset", "version": 1, "tasks": [{"release": 0}]},
            {"format": "repro-taskset", "version": 1, "tasks": [[0.0, 1.0, 1.0]]},
        ],
    )
    def test_rejects_what_the_json_loader_rejects(self, doc):
        with pytest.raises(ValueError) as from_dict:
            taskset_from_dict(doc)
        with pytest.raises(ValueError) as from_text:
            taskset_from_json(json.dumps(doc))
        assert str(from_dict.value) == str(from_text.value)


class TestCsv:
    def test_roundtrip(self, tasks):
        assert taskset_from_csv(taskset_to_csv(tasks)) == tasks

    def test_minimal_columns(self):
        ts = taskset_from_csv("release,deadline,work\n0,4,2\n1,5,3\n")
        assert len(ts) == 2
        assert ts[1].work == 3.0

    def test_column_order_free(self):
        ts = taskset_from_csv("work,release,deadline\n2,0,4\n")
        assert ts[0].work == 2.0 and ts[0].deadline == 4.0

    def test_blank_lines_skipped(self):
        ts = taskset_from_csv("release,deadline,work\n0,4,2\n\n\n")
        assert len(ts) == 1

    def test_missing_column(self):
        with pytest.raises(ValueError, match="missing required column"):
            taskset_from_csv("release,deadline\n0,4\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty CSV"):
            taskset_from_csv("")

    def test_no_rows(self):
        with pytest.raises(ValueError, match="no task rows"):
            taskset_from_csv("release,deadline,work\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            taskset_from_csv("release,deadline,work\n0,4,2\n0,x,2\n")


class TestFiles:
    def test_json_file_roundtrip(self, tasks, tmp_path):
        p = tmp_path / "tasks.json"
        save_taskset(tasks, p)
        assert load_taskset(p) == tasks

    def test_csv_file_roundtrip(self, tasks, tmp_path):
        p = tmp_path / "tasks.csv"
        save_taskset(tasks, p)
        assert load_taskset(p) == tasks

    def test_unknown_extension(self, tasks, tmp_path):
        with pytest.raises(ValueError, match="extension"):
            save_taskset(tasks, tmp_path / "tasks.yaml")
        with pytest.raises(ValueError, match="extension"):
            load_taskset(tmp_path / "tasks.yaml")
