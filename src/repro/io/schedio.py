"""Schedule serialization: export/import concrete schedules as JSON.

A serialized schedule embeds its task set and power-model parameters, so a
saved file is self-contained: loading reconstructs an object whose energy,
validation and replay behave identically.  Used by the CLI to hand schedules
between planning and inspection steps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.schedule import Schedule
from ..power.discrete import DiscreteFrequencySet
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


def _power_to_dict(power) -> dict:
    if isinstance(power, PolynomialPower):
        return {
            "alpha": float(power.alpha),
            "static": float(power.static),
            "gamma": float(power.gamma),
        }
    if isinstance(power, DiscreteFrequencySet):
        doc = {
            "frequencies": power.frequencies.tolist(),
            "powers": power.powers.tolist(),
        }
        if power.continuous_fit is not None:
            doc["continuous_fit"] = _power_to_dict(power.continuous_fit)
        if power.strict:
            doc["strict"] = True
        return doc
    raise TypeError(
        "only PolynomialPower and DiscreteFrequencySet schedules are "
        f"serializable (got {type(power).__name__})"
    )


def _polynomial_from_dict(p) -> PolynomialPower:
    return PolynomialPower(
        alpha=float(p["alpha"]), static=float(p["static"]), gamma=float(p.get("gamma", 1.0))
    )


def _power_from_dict(p):
    if "frequencies" not in p:
        return _polynomial_from_dict(p)
    fit = p.get("continuous_fit")
    return DiscreteFrequencySet(
        frequencies=np.asarray(p["frequencies"], dtype=np.float64),
        powers=np.asarray(p["powers"], dtype=np.float64),
        continuous_fit=None if fit is None else _polynomial_from_dict(fit),
        strict=bool(p.get("strict", False)),
    )


def _head(schedule: Schedule) -> dict:
    """The document without its ``segments``."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "n_cores": int(schedule.n_cores),
        "power": _power_to_dict(schedule.power),
        "tasks": taskset_to_dict(schedule.tasks),
    }


def schedule_to_dict(schedule: Schedule) -> dict:
    """The JSON document of a schedule, as plain Python values.

    Every number is a Python ``int`` or ``float`` (never a numpy scalar),
    and ``json.dumps`` of it is :func:`schedule_to_json`'s text.  A
    polynomial power model is written as its parameters, a discrete one
    as its operating points (plus its continuous fit, when it has one).
    """
    doc = _head(schedule)
    doc["segments"] = [
        {"task": t, "core": c, "start": s, "end": e, "frequency": f}
        for t, c, s, e, f in zip(
            schedule.task.tolist(),
            schedule.core.tolist(),
            schedule.start.tolist(),
            schedule.end.tolist(),
            schedule.frequency.tolist(),
        )
    ]
    return doc


def schedule_from_dict(payload) -> Schedule:
    """Reconstruct a schedule from its JSON document (already decoded)."""
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    if payload.get("version") != _VERSION:
        raise ValueError(f"unsupported {_FORMAT} version")
    tasks = taskset_from_dict(payload["tasks"])
    power = _power_from_dict(payload["power"])
    segs = payload["segments"]
    return Schedule.from_columns(
        tasks,
        int(payload["n_cores"]),
        power,
        [int(s["task"]) for s in segs],
        [int(s["core"]) for s in segs],
        [float(s["start"]) for s in segs],
        [float(s["end"]) for s in segs],
        [float(s["frequency"]) for s in segs],
    )


#: one segment of the compact document, as ``json.dumps`` writes its dict
_ROW = '{"task": %d, "core": %d, "start": %s, "end": %s, "frequency": %s}'


def _segment_rows(schedule: Schedule) -> str:
    """The compact ``segments`` list's items, read from the columns.

    Each distinct float (by bit pattern, so ``-0.0`` stays apart from
    ``0.0``) is formatted once, by ``json.dumps`` itself: a schedule
    repeats few values (task frequencies, shared boundaries), and float
    formatting is most of the cost of writing one.
    """
    n = len(schedule)
    if not n:
        return ""
    floats = np.concatenate((schedule.start, schedule.end, schedule.frequency))
    bits, inverse = np.unique(floats.view(np.uint64), return_inverse=True)
    text = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    words = [text[i] for i in inverse.tolist()]
    return ", ".join(
        map(
            _ROW.__mod__,
            zip(
                schedule.task.tolist(),
                schedule.core.tolist(),
                words[:n],
                words[n : 2 * n],
                words[2 * n :],
            ),
        )
    )


def schedule_to_json(schedule: Schedule, indent: int | None = 2) -> str:
    """Serialize a schedule (with its task set and power model) to JSON.

    ``indent=None`` writes the compact form, byte for byte
    ``json.dumps(schedule_to_dict(schedule))``, from the columns without
    building the per-segment dicts.
    """
    if indent is not None:
        return json.dumps(schedule_to_dict(schedule), indent=indent)
    head = json.dumps(_head(schedule))
    return f'{head[:-1]}, "segments": [{_segment_rows(schedule)}]}}'


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule from its JSON form."""
    return schedule_from_dict(json.loads(text))


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule JSON to disk."""
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule JSON from disk."""
    return schedule_from_json(Path(path).read_text())
