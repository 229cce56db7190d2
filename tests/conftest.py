"""Shared fixtures and instance factories for the test-suite."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import TaskSet
from repro.power import PolynomialPower
from repro.service import SchedulingService, ServiceConfig
from repro.workloads import (
    intro_example,
    motivational_power,
    paper_workload,
    six_task_example,
)
from repro.workloads.generator import PaperWorkloadConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for each test."""
    return np.random.default_rng(12345)


@pytest.fixture
def cube_power() -> PolynomialPower:
    """The classic ``p(f) = f³`` model (no static power)."""
    return PolynomialPower(alpha=3.0, static=0.0)


@pytest.fixture
def static_power() -> PolynomialPower:
    """A model with nonzero static power: ``p(f) = f³ + 0.1``."""
    return PolynomialPower(alpha=3.0, static=0.1)


@pytest.fixture
def six_tasks() -> TaskSet:
    """The §V-D worked example's task set."""
    return six_task_example()


@pytest.fixture
def intro_tasks() -> TaskSet:
    """The Figs. 1–2 introductory task set."""
    return intro_example()


@pytest.fixture
def motivational() -> tuple[TaskSet, PolynomialPower]:
    """The §II motivational instance (3 tasks, 2 cores, f³ + 0.01)."""
    return intro_example(), motivational_power()


def random_instance(
    seed: int,
    n: int = 12,
    alpha: float = 3.0,
    p0: float = 0.1,
    intensity_low: float = 0.1,
) -> tuple[TaskSet, PolynomialPower]:
    """A small random paper-style instance for parametrized tests."""
    rng = np.random.default_rng(seed)
    tasks = paper_workload(
        rng, PaperWorkloadConfig(n_tasks=n, intensity_low=intensity_low)
    )
    return tasks, PolynomialPower(alpha=alpha, static=p0)


def run_with_service(test_coro, config: ServiceConfig | None = None):
    """Run ``test_coro(service)`` against a daemon on an ephemeral port.

    The default daemon solves in a thread executor (``workers=0``) and logs
    nothing periodically; the daemon stops gracefully afterwards.
    """

    async def runner():
        async with SchedulingService(
            config or ServiceConfig(port=0, workers=0, log_interval=0)
        ) as service:
            return await test_coro(service)

    return asyncio.run(runner())


def decoded(result: dict) -> dict:
    """A pool worker's result as the dict its encoded bytes stand for.

    A solved ``/schedule`` job comes back as ``{"encoded": EncodedResult}``
    (plus ``_spans`` when traced); every other key, and an error dict,
    passes through unchanged.
    """
    out = {k: v for k, v in result.items() if k != "encoded"}
    if "encoded" in result:
        out.update(json.loads(result["encoded"].data))
    return out
