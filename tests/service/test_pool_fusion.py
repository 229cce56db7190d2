"""Fused batch solving must be indistinguishable from per-job solving.

``solve_schedule_batch`` fuses same-platform jobs into one vectorized
pipeline pass over disjoint time windows.  These tests pin the contract:
fusion changes throughput, not the plan — energies match solo solves,
segments hold the same (task, core) pairs with times within 1e-9 (the
shift moves them by ~1e-12, so replies are not bit-identical), schedules
stay valid, unfusable jobs (``online``, malformed, different platforms)
are isolated, and a poisoned group degrades to per-job solving instead of
failing the batch.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core import Task, TaskSet
from repro.engine import Platform, SolveRequest, solve
from repro.io.schedio import schedule_from_dict, schedule_from_json, schedule_to_json
from repro.power import PolynomialPower
from repro.service.pool import _fuse_key, _solve_one_schedule, solve_schedule_batch
from repro.service.protocol import EncodedResult
from repro.sim.validate import validate_schedule
from repro.workloads.generator import PaperWorkloadConfig, paper_workload
from tests.conftest import decoded


def _solve(jobs) -> list[dict]:
    """``solve_schedule_batch`` with each result decoded from its bytes."""
    return [decoded(r) for r in solve_schedule_batch(jobs)]


def _solo(job) -> dict:
    return decoded(_solve_one_schedule(job))


def _job(rng, n_tasks=3, m=2, method="der", alpha=3.0, static=0.1, include=True):
    tasks = paper_workload(rng, PaperWorkloadConfig(n_tasks=n_tasks))
    return {
        "tasks": [(t.release, t.deadline, t.work, t.name) for t in tasks],
        "m": m,
        "alpha": alpha,
        "static": static,
        "method": method,
        "include_schedule": include,
    }


class TestFuseKey:
    def test_same_platform_shares_a_key(self):
        rng = np.random.default_rng(0)
        a, b = _job(rng), _job(rng)
        assert _fuse_key(a) == _fuse_key(b)

    @pytest.mark.parametrize(
        "override",
        [{"m": 4}, {"alpha": 2.0}, {"static": 0.5}, {"method": "even"}],
    )
    def test_platform_differences_split_groups(self, override):
        rng = np.random.default_rng(0)
        base = _job(rng)
        assert _fuse_key(base) != _fuse_key({**base, **override})

    def test_online_never_fuses(self):
        rng = np.random.default_rng(0)
        assert _fuse_key(_job(rng, method="online")) is None


class TestFusedEqualsSolo:
    def test_energies_and_kinds_match_solo_solves(self):
        rng = np.random.default_rng(1)
        jobs = [_job(rng) for _ in range(8)]
        fused = _solve(jobs)
        for job, got in zip(jobs, fused):
            want = _solo(job)
            assert got["kind"] == want["kind"]
            assert got["energy"] == pytest.approx(want["energy"], rel=1e-9)

    def test_segments_match_solo_solves(self):
        def segments(result):
            return sorted(
                result["schedule"]["segments"],
                key=lambda seg: (seg["task"], seg["core"], seg["start"]),
            )

        for method, n_tasks, m in (("der", 3, 2), ("even", 20, 4)):
            rng = np.random.default_rng(7)
            jobs = [_job(rng, n_tasks=n_tasks, m=m, method=method) for _ in range(8)]
            for job, got in zip(jobs, _solve(jobs)):
                fused, solo = segments(got), segments(_solo(job))
                assert [(s["task"], s["core"]) for s in fused] == [
                    (s["task"], s["core"]) for s in solo
                ]
                for a, b in zip(fused, solo):
                    assert a["start"] == pytest.approx(b["start"], abs=1e-9)
                    assert a["end"] == pytest.approx(b["end"], abs=1e-9)

    def test_fused_schedules_validate(self):
        rng = np.random.default_rng(2)
        jobs = [_job(rng) for _ in range(6)]
        for result in _solve(jobs):
            schedule = schedule_from_json(json.dumps(result["schedule"]))
            assert validate_schedule(schedule) == []

    def test_include_schedule_false_omits_payload(self):
        rng = np.random.default_rng(3)
        results = _solve([_job(rng, include=False) for _ in range(4)])
        assert all("schedule" not in r for r in results)
        assert all(r["energy"] > 0 for r in results)


def _plain_reply(raw: dict) -> bool:
    """True when a worker's reply, as pickled back to the daemon, holds only
    the result's bytes and plain strings: no numpy scalar can ride along."""
    encoded = raw["encoded"]
    return (
        set(raw) == {"encoded"}
        and type(encoded) is EncodedResult
        and type(encoded.data) is bytes
        and type(encoded.cache_hit) is bool
        and all(
            type(v) in (str, type(None))
            for v in (encoded.solver, encoded.degraded_from)
        )
    )


class TestScheduleDocument:
    """A worker's reply carries the schedule as the JSON text serializer's
    document: the worker's encoded bytes hold ``schedule_to_json``'s
    compact text, and the pickled reply holds no numpy scalars."""

    @pytest.mark.parametrize("method", ["der", "naive"])  # naive packs numpy floats
    def test_solo_reply_matches_the_text_serializer(self, method):
        job = _job(np.random.default_rng(4), n_tasks=20, m=4, method=method)
        (raw,) = solve_schedule_batch([job])
        got = decoded(raw)
        tasks = TaskSet(Task(r, d, c, name) for r, d, c, name in job["tasks"])
        request = SolveRequest(
            tasks=tasks, platform=Platform(m=4, power=PolynomialPower(3.0, 0.1))
        )
        schedule = solve(method, request, validate=False).schedule
        text = json.dumps(json.loads(schedule_to_json(schedule, indent=None)))
        assert json.dumps(got["schedule"]) == text
        assert raw["encoded"].data.endswith(f', "schedule": {text}}}'.encode())
        assert _plain_reply(raw)
        assert isinstance(raw["encoded"], EncodedResult)
        assert pickle.loads(pickle.dumps(raw)) == raw

    def test_fused_replies_match_the_text_serializer(self):
        rng = np.random.default_rng(5)
        jobs = [_job(rng, n_tasks=20, m=4) for _ in range(8)]
        for raw in solve_schedule_batch(jobs):
            got = decoded(raw)
            schedule = schedule_from_dict(got["schedule"])
            text = json.dumps(json.loads(schedule_to_json(schedule, indent=None)))
            assert json.dumps(got["schedule"]) == text
            assert raw["encoded"].data.endswith(f', "schedule": {text}}}'.encode())
            assert _plain_reply(raw)


class TestMixedBatches:
    def test_mixed_platforms_and_methods_keep_job_order(self):
        rng = np.random.default_rng(4)
        jobs = [
            _job(rng, m=2),
            _job(rng, m=4),
            _job(rng, method="online"),
            _job(rng, m=2),
            _job(rng, method="even"),
            _job(rng, m=4),
        ]
        results = _solve(jobs)
        assert [r["m"] for r in results] == [2, 4, 2, 2, 2, 4]
        assert results[2]["kind"] == "online"
        assert "replans" in results[2]
        assert results[4]["kind"] == "S^F1"
        for job, got in zip(jobs, results):
            want = _solo(job)
            assert got["energy"] == pytest.approx(want["energy"], rel=1e-9)

    def test_malformed_job_errors_alone(self):
        rng = np.random.default_rng(5)
        bad = {"tasks": [(0.0, 1.0, 5.0, "t")], "m": 2, "method": "der"}  # no alpha
        jobs = [_job(rng), bad, _job(rng)]
        results = solve_schedule_batch(jobs)
        assert "error" in results[1]
        assert "error" not in results[0] and "error" not in results[2]

    def test_infeasible_instance_poisons_only_itself(self):
        rng = np.random.default_rng(6)
        # zero-work task: Task validation rejects it inside the worker
        bad = {
            "tasks": [(0.0, 1.0, -5.0, "t")],
            "m": 2,
            "alpha": 3.0,
            "static": 0.1,
            "method": "der",
        }
        jobs = [_job(rng), bad, _job(rng)]
        results = _solve(jobs)
        assert "error" in results[1]
        for job, got in ((jobs[0], results[0]), (jobs[2], results[2])):
            assert got["energy"] == pytest.approx(
                _solo(job)["energy"], rel=1e-9
            )
