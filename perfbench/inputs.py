"""Seeded workload inputs.

The generators live here, not in the program, so a change to the program
never changes what the benchmark sends.  They draw from the paper's §VI
distributions: releases uniform on [0, 200], work uniform on [10, 30],
intensity from {0.1, 0.2, ..., 1.0}, deadline = release + work / intensity.
"""

from __future__ import annotations

import json

import numpy as np
from repro.core.task import Task, TaskSet
from repro.power.models import PolynomialPower

#: the platform every workload runs on: m cores, power f^alpha + p0
M, ALPHA, P0 = 4, 3.0, 0.1
#: the admission workload's frequency cap and mean arrival rate
F_MAX, ADMIT_RATE = 2.0, 1.0

_INTENSITIES = np.round(0.1 * np.arange(1, 11), 10)


def power() -> PolynomialPower:
    """The workload platform's power model ``f**ALPHA + P0``."""
    return PolynomialPower(alpha=ALPHA, static=P0)


def taskset(rows: list[list[float]]) -> TaskSet:
    """``[release, deadline, work]`` rows as the library's task set."""
    return TaskSet(Task(release=r, deadline=d, work=c) for r, d, c in rows)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose): inputs never overlap."""
    key = [int(b) for b in stream.encode()]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def _rows(rng: np.random.Generator, releases: np.ndarray) -> list[list[float]]:
    """``[release, deadline, work]`` rows: §VI work and intensity for each release."""
    works = rng.uniform(10.0, 30.0, len(releases))
    intensity = rng.choice(_INTENSITIES, len(releases))
    deadlines = releases + works / intensity
    return [[float(r), float(d), float(c)] for r, d, c in zip(releases, deadlines, works)]


def paper_taskset(rng: np.random.Generator, n: int = 20) -> list[list[float]]:
    """One §VI task set: releases uniform on [0, 200]."""
    return _rows(rng, rng.uniform(0.0, 200.0, n))


def admission_stream(rng: np.random.Generator, n: int) -> list[list[float]]:
    """An arrival stream in release order at rate :data:`ADMIT_RATE`, stratified.

    Inter-arrival gaps, work and intensity are the ``n`` quantile
    midpoints of their distributions (exponential gaps, §VI work and
    intensity) in a seeded random order.  Every stream so offers the same
    total load over the same horizon, and a seed changes only which task
    arrives when: the admission cost of a run varies far less between
    seeds than with independent draws.
    """
    q = (np.arange(n) + 0.5) / n
    releases = np.cumsum(rng.permutation(-np.log1p(-q) / ADMIT_RATE))
    works = rng.permutation(10.0 + 20.0 * q)
    intensity = rng.permutation(np.resize(_INTENSITIES, n))
    deadlines = releases + works / intensity
    return [[float(r), float(d), float(c)] for r, d, c in zip(releases, deadlines, works)]


def schedule_body(tasks: list[list[float]]) -> dict:
    """``POST /v1/schedule`` body: S^F2 on the workload platform, schedule returned."""
    return {
        "tasks": tasks,
        "m": M,
        "alpha": ALPHA,
        "static": P0,
        "method": "der",
        "include_schedule": True,
    }


def admit_body(task: list[float] | None = None, **flags) -> dict:
    """``POST /v1/admit`` body on the capped workload platform."""
    body = {"m": M, "alpha": ALPHA, "static": P0, "f_max": F_MAX, **flags}
    if task is not None:
        body["task"] = task
    return body


def encode(body: dict) -> bytes:
    """A request body as compact JSON bytes."""
    return json.dumps(body, separators=(",", ":")).encode()
