"""Unit tests for schedule serialization."""

import json

import numpy as np
import pytest

from repro.core import Schedule, Segment, SubintervalScheduler
from repro.io import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.sim import validate_schedule
from tests.conftest import random_instance


@pytest.fixture
def schedule():
    tasks, power = random_instance(4, n=8)
    return SubintervalScheduler(tasks, 3, power).final("der").schedule


class TestRoundtrip:
    def test_energy_preserved(self, schedule):
        out = schedule_from_json(schedule_to_json(schedule))
        assert out.total_energy() == pytest.approx(schedule.total_energy())

    def test_structure_preserved(self, schedule):
        out = schedule_from_json(schedule_to_json(schedule))
        assert out.n_cores == schedule.n_cores
        assert len(out) == len(schedule)
        assert out.tasks == schedule.tasks

    def test_validity_preserved(self, schedule):
        out = schedule_from_json(schedule_to_json(schedule))
        assert validate_schedule(out) == []

    def test_power_model_preserved(self, schedule):
        out = schedule_from_json(schedule_to_json(schedule))
        assert out.power.alpha == schedule.power.alpha
        assert out.power.static == schedule.power.static

    def test_file_roundtrip(self, schedule, tmp_path):
        p = tmp_path / "sched.json"
        save_schedule(schedule, p)
        out = load_schedule(p)
        assert out.total_energy() == pytest.approx(schedule.total_energy())


class TestDict:
    def test_roundtrip(self, schedule):
        out = schedule_from_dict(schedule_to_dict(schedule))
        assert list(out) == list(schedule)
        assert out.tasks == schedule.tasks

    def test_json_is_the_encoded_document(self, schedule):
        doc = schedule_to_dict(schedule)
        assert schedule_to_json(schedule) == json.dumps(doc, indent=2)
        assert json.loads(schedule_to_json(schedule, indent=None)) == doc

    def test_numpy_scalars_become_python_numbers(self, schedule):
        seg = schedule[0]
        numpy_seg = Segment(
            seg.task_id, seg.core, np.float64(seg.start), np.float64(seg.end),
            np.float64(seg.frequency),
        )
        numpy_schedule = Schedule(schedule.tasks, schedule.n_cores, schedule.power, [numpy_seg])
        (out,) = schedule_to_dict(numpy_schedule)["segments"]
        assert [type(v) for v in out.values()] == [int, int, float, float, float]
        assert out["start"] == seg.start


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a repro-schedule"):
            schedule_from_json('{"format": "nope"}')

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            schedule_from_json('{"format": "repro-schedule", "version": 9}')

    def test_rejects_non_polynomial_power(self, schedule):
        # a discrete operating-point table is serializable
        # (TestDiscretePower); a model the format has no fields for is not
        from repro.power.models import PowerModel

        class Linear(PowerModel):
            def power(self, f):
                return f

            def critical_frequency(self):
                return 0.0

        bad = schedule.with_power(Linear())
        with pytest.raises(TypeError, match="PolynomialPower"):
            schedule_to_json(bad)


class TestDiscretePower:
    def test_practical_schedule_round_trips(self):
        from repro.core.practical_scheduler import PracticalScheduler
        from repro.power.xscale import xscale_frequency_set

        tasks, _ = random_instance(4, n=8)
        fset = xscale_frequency_set()
        schedule = PracticalScheduler(tasks, 3, fset).schedule().schedule
        doc = schedule_to_dict(schedule)
        assert doc["version"] == 1
        assert doc["power"]["frequencies"] == fset.frequencies.tolist()
        assert doc["power"]["powers"] == fset.powers.tolist()
        out = schedule_from_json(schedule_to_json(schedule))
        assert out.power.continuous_fit == fset.continuous_fit
        assert not out.power.strict
        assert list(out) == list(schedule)
        assert out.total_energy() == schedule.total_energy()
