"""Process-parallel Monte-Carlo replication (the HPC layer).

The convex solve dominates each replication, and replications are perfectly
independent, so the natural parallel decomposition is one replication per
work item, fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`
with chunked submission.  Seeds are precomputed by the caller (SeedSequence
spawning), so parallel and serial runs are bit-identical in their inputs and
deterministic in their aggregate outputs.

Everything submitted crosses process boundaries, so the worker is a
module-level function of picklable arguments only.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.metrics import NecSample
    from .runner import PointSpec

__all__ = ["parallel_replications", "default_workers", "chunk_size"]


def default_workers() -> int:
    """A conservative worker count: physical parallelism minus one."""
    return max((os.cpu_count() or 2) - 1, 1)


def chunk_size(n_items: int, workers: int) -> int:
    """Chunked-submission size: four chunks per worker, at least 1.

    Small batches (``n_items < 4 * workers``) degrade to per-item
    submission so every worker still gets work.  Four chunks per worker
    balance load for long Monte-Carlo sweeps with uneven item costs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return max(n_items // (workers * 4), 1)


def _replication_worker(args: tuple) -> "NecSample":
    """Pickle-friendly worker: run one replication of one spec."""
    from .runner import run_replication

    spec, seed = args
    return run_replication(spec, seed)


def parallel_replications(
    spec: "PointSpec",
    seeds: Sequence[int],
    workers: int | None = None,
) -> list["NecSample"]:
    """Run one replication per seed across a process pool.

    Results come back in seed order regardless of completion order.
    """
    workers = workers or default_workers()
    if workers <= 1 or len(seeds) <= 1:
        from .runner import run_replication

        return [run_replication(spec, s) for s in seeds]
    chunk = chunk_size(len(seeds), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(_replication_worker, [(spec, s) for s in seeds], chunksize=chunk)
        )
