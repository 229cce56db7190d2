"""Schedule serialization: export/import concrete schedules as JSON.

A serialized schedule embeds its task set and power-model parameters, so a
saved file is self-contained: loading reconstructs an object whose energy,
validation and replay behave identically.  Used by the CLI to hand schedules
between planning and inspection steps.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.schedule import Schedule, Segment
from ..power.models import PolynomialPower
from .taskio import taskset_from_dict, taskset_to_dict

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
]

_FORMAT = "repro-schedule"
_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> dict:
    """The JSON document of a schedule, as plain Python values.

    Every number is a Python ``int`` or ``float`` (never a numpy scalar),
    so the document pickles compactly and ``json.dumps`` of it is
    :func:`schedule_to_json`'s text.
    """
    power = schedule.power
    if not isinstance(power, PolynomialPower):
        raise TypeError(
            "only PolynomialPower schedules are serializable "
            f"(got {type(power).__name__})"
        )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "n_cores": int(schedule.n_cores),
        "power": {
            "alpha": float(power.alpha),
            "static": float(power.static),
            "gamma": float(power.gamma),
        },
        "tasks": taskset_to_dict(schedule.tasks),
        "segments": [
            {
                "task": int(s.task_id),
                "core": int(s.core),
                "start": float(s.start),
                "end": float(s.end),
                "frequency": float(s.frequency),
            }
            for s in schedule
        ],
    }


def schedule_from_dict(payload) -> Schedule:
    """Reconstruct a schedule from its JSON document (already decoded)."""
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    if payload.get("version") != _VERSION:
        raise ValueError(f"unsupported {_FORMAT} version")
    tasks = taskset_from_dict(payload["tasks"])
    p = payload["power"]
    power = PolynomialPower(
        alpha=float(p["alpha"]), static=float(p["static"]), gamma=float(p.get("gamma", 1.0))
    )
    segments = [
        Segment(
            task_id=int(s["task"]),
            core=int(s["core"]),
            start=float(s["start"]),
            end=float(s["end"]),
            frequency=float(s["frequency"]),
        )
        for s in payload["segments"]
    ]
    return Schedule(tasks, int(payload["n_cores"]), power, segments)


def schedule_to_json(schedule: Schedule, indent: int | None = 2) -> str:
    """Serialize a schedule (with its task set and power model) to JSON."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule from its JSON form."""
    return schedule_from_dict(json.loads(text))


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule JSON to disk."""
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule JSON from disk."""
    return schedule_from_json(Path(path).read_text())
