"""Serialization: task sets (JSON/CSV) and schedules (JSON), round-trip safe."""

from .schedio import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from .taskio import (
    load_taskset,
    save_taskset,
    taskset_from_csv,
    taskset_from_dict,
    taskset_from_json,
    taskset_to_csv,
    taskset_to_dict,
    taskset_to_json,
)

__all__ = [
    "taskset_to_dict",
    "taskset_from_dict",
    "taskset_to_json",
    "taskset_from_json",
    "taskset_to_csv",
    "taskset_from_csv",
    "save_taskset",
    "load_taskset",
    "schedule_to_dict",
    "schedule_from_dict",
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
]
