"""Fault injection, worker supervision, and the service's chaos paths.

Thread-mode (``workers=0``) dispatchers make supervision deterministic:
``kill=1.0`` crashes every first attempt via ``SimulatedWorkerCrash`` and
the retry must reproduce the clean result bit-for-bit.  One test exercises
the real ``ProcessPoolExecutor`` path — an actual SIGKILLed worker,
respawn, and re-dispatch — and is the slowest test in this file.
"""

import asyncio
import time

import pytest

from repro.engine import register
from repro.engine.registry import _REGISTRY
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig
from repro.service.config import RetryPolicy
from repro.service.faults import (
    MALFORMED_MENU,
    FaultInjector,
    FaultSpec,
    SimulatedWorkerCrash,
)
from repro.service.http11 import request_once
from repro.service.pool import SolveDispatcher
from tests.conftest import decoded, run_with_service

_ROWS = [(0.0, 10.0, 6.0), (2.0, 14.0, 5.0), (4.0, 16.0, 7.0)]


def _job(rows=_ROWS, **over) -> dict:
    return {
        "tasks": [[r, d, c, f"t{i}"] for i, (r, d, c) in enumerate(rows)],
        "m": 2,
        "alpha": 3.0,
        "static": 0.1,
        "method": "der",
        "include_schedule": False,
        **over,
    }


def _jobs(n: int) -> list[dict]:
    # distinct work per job so energies genuinely differ across jobs
    return [
        _job([(r, d, c + i) for (r, d, c) in _ROWS]) for i in range(n)
    ]


class TestFaultSpec:
    def test_parse_format_round_trip(self):
        spec = FaultSpec.parse("kill=0.05,delay=0.1:0.02,drop=0.02,malform=0.1,seed=7")
        assert spec.kill_rate == 0.05
        assert spec.delay_rate == 0.1
        assert spec.delay_s == 0.02
        assert spec.drop_rate == 0.02
        assert spec.malform_rate == 0.1
        assert spec.seed == 7
        assert FaultSpec.parse(spec.format()) == spec

    def test_empty_spec_is_disabled(self):
        spec = FaultSpec.parse("")
        assert spec == FaultSpec()
        assert not spec.enabled
        assert FaultSpec.parse("   ") == spec

    def test_delay_without_seconds_keeps_the_default(self):
        spec = FaultSpec.parse("delay=0.5")
        assert spec.delay_rate == 0.5
        assert spec.delay_s == FaultSpec().delay_s

    def test_any_nonzero_rate_enables(self):
        assert FaultSpec.parse("drop=0.01").enabled
        assert not FaultSpec.parse("seed=9").enabled

    @pytest.mark.parametrize(
        "bad",
        ["bogus=1", "kill", "kill=high", "kill=0.1,delay=a:b", "=0.5"],
    )
    def test_malformed_spec_strings_raise(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_out_of_range_rates_raise(self):
        with pytest.raises(ValueError, match="kill_rate"):
            FaultSpec(kill_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSpec(drop_rate=-0.1)
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(delay_s=-1.0)


class TestFaultInjector:
    def test_same_seed_replays_the_same_decisions(self):
        spec = FaultSpec.parse("kill=0.3,drop=0.4,malform=0.5,seed=42")
        a, b = FaultInjector(spec), FaultInjector(spec)
        decisions_a = [
            (a.should_kill(), a.should_drop(), a.should_malform())
            for _ in range(50)
        ]
        decisions_b = [
            (b.should_kill(), b.should_drop(), b.should_malform())
            for _ in range(50)
        ]
        assert decisions_a == decisions_b
        assert a.counts == b.counts

    def test_retries_never_killed_and_consume_no_randomness(self):
        spec = FaultSpec.parse("kill=0.5,seed=7")
        plain, interleaved = FaultInjector(spec), FaultInjector(spec)
        seq = []
        for _ in range(30):
            # attempt>0 probes must not advance the RNG stream: the
            # attempt-0 sequence stays identical with them interleaved
            assert interleaved.should_kill(attempt=1) is False
            seq.append(interleaved.should_kill(attempt=0))
        assert seq == [plain.should_kill(attempt=0) for _ in range(30)]
        assert interleaved.counts["kill"] == plain.counts["kill"] > 0

    def test_malformed_payloads_cycle_the_menu(self):
        injector = FaultInjector(FaultSpec.parse("malform=1.0,seed=0"))
        n = len(MALFORMED_MENU)
        seen = []
        for _ in range(n + 3):
            assert injector.should_malform()
            seen.append(injector.malformed_payload())
        # the cycle position tracks the injection count, so one full lap
        # covers every menu entry exactly once before repeating
        assert seen[:n] == [MALFORMED_MENU[(i + 1) % n] for i in range(n)]
        assert seen[n] == seen[0]

    def test_maybe_delay_sleeps_and_counts(self):
        injector = FaultInjector(FaultSpec.parse("delay=1.0:0.01,seed=0"))

        async def scenario():
            t0 = time.perf_counter()
            await injector.maybe_delay()
            return time.perf_counter() - t0

        assert asyncio.run(scenario()) >= 0.01
        assert injector.counts["delay"] == 1

    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultSpec())
        for _ in range(20):
            assert not injector.should_kill()
            assert not injector.should_drop()
            assert not injector.should_malform()
        assert sum(injector.counts.values()) == 0


class TestThreadModeSupervision:
    def test_killed_dispatch_retries_bit_identical(self):
        """The acceptance bar: retried jobs match unfaulted solves exactly."""
        jobs = _jobs(3)
        clean = SolveDispatcher(0)
        baseline = [decoded(r) for r in asyncio.run(clean.solve_batch(jobs))]

        metrics = MetricsRegistry()
        chaotic = SolveDispatcher(
            0,
            metrics=metrics,
            retry=RetryPolicy(max_retries=1, backoff_base=0.001),
            injector=FaultInjector(FaultSpec.parse("kill=1.0,seed=3")),
        )
        results = [decoded(r) for r in asyncio.run(chaotic.solve_batch(jobs))]

        assert [r.get("error") for r in results] == [None] * 3
        assert [r["energy"] for r in results] == [
            r["energy"] for r in baseline
        ]
        assert metrics.counter("worker_restarts").value == 1
        assert metrics.counter("job_retries").value == 3
        assert metrics.counter("jobs_abandoned").value == 0

    def test_exhausted_retry_budget_abandons_cleanly(self):
        metrics = MetricsRegistry()
        dispatcher = SolveDispatcher(
            0,
            metrics=metrics,
            retry=RetryPolicy(max_retries=0),
            injector=FaultInjector(FaultSpec.parse("kill=1.0,seed=3")),
        )
        results = asyncio.run(dispatcher.solve_batch(_jobs(3)))
        for r in results:
            assert r["abandoned"] is True
            assert "crash" in r["error"]
        assert metrics.counter("jobs_abandoned").value == 3
        assert metrics.counter("job_retries").value == 0

    def test_optimal_dispatch_is_supervised_too(self):
        metrics = MetricsRegistry()
        dispatcher = SolveDispatcher(
            0,
            metrics=metrics,
            retry=RetryPolicy(max_retries=1, backoff_base=0.001),
            injector=FaultInjector(FaultSpec.parse("kill=1.0,seed=3")),
        )
        job = {**_job(), "solver": "optimal:slsqp"}
        job.pop("method")
        result = asyncio.run(dispatcher.solve_optimal(job))
        assert "error" not in result
        assert result["energy"] > 0
        assert metrics.counter("job_retries").value == 1

    def test_abandoned_optimal_dispatch_answers_with_an_error(self):
        metrics = MetricsRegistry()
        dispatcher = SolveDispatcher(
            0,
            metrics=metrics,
            retry=RetryPolicy(max_retries=0),
            injector=FaultInjector(FaultSpec.parse("kill=1.0,seed=3")),
        )
        carrier = {"trace_id": "cd" * 16, "parent": "ab" * 8,
                   "enqueued_at": time.time()}
        job = {**_job(), "solver": "optimal:slsqp", "_trace": carrier}
        job.pop("method")
        result = asyncio.run(dispatcher.solve_optimal(job))
        assert result["abandoned"] is True
        assert "crash" in result["error"]
        (attempt,) = result["_spans"]
        assert attempt["name"] == "pool.attempt"
        assert attempt["attrs"]["outcome"] == "abandoned"
        assert attempt["trace_id"] == carrier["trace_id"]
        assert metrics.counter("jobs_abandoned").value == 1

    def test_retry_delay_is_jittered_exponential(self):
        import random

        policy = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_cap=0.15)
        rng = random.Random(0)
        d1 = [policy.delay(1, rng) for _ in range(100)]
        d2 = [policy.delay(2, rng) for _ in range(100)]
        assert all(0.05 <= d <= 0.1 for d in d1)
        assert all(0.075 <= d <= 0.15 for d in d2)  # capped at 0.15
        with pytest.raises(ValueError):
            policy.delay(0, rng)


class TestRealPoolSupervision:
    def test_sigkilled_worker_is_respawned_and_the_job_retried(self):
        """Real ProcessPoolExecutor: SIGKILL a live worker, survive it."""
        clean = SolveDispatcher(0)
        baseline = [decoded(r) for r in asyncio.run(clean.solve_batch([_job()]))]

        metrics = MetricsRegistry()
        dispatcher = SolveDispatcher(
            1,
            metrics=metrics,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
        )
        try:

            async def scenario():
                # warm-up spawns the worker process so the chaos kill below
                # lands on a live pid rather than simulating the crash
                warm = await dispatcher.solve_batch([_job()])
                assert "error" not in warm[0]
                dispatcher.injector = FaultInjector(
                    FaultSpec.parse("kill=1.0,seed=5")
                )
                return await dispatcher.solve_batch([_job()])

            results = [decoded(r) for r in asyncio.run(scenario())]
        finally:
            dispatcher.shutdown()

        assert "error" not in results[0]
        assert results[0]["energy"] == baseline[0]["energy"]
        assert dispatcher.injector.counts["kill"] >= 1
        assert metrics.counter("worker_restarts").value >= 1
        assert metrics.counter("job_retries").value >= 1
        assert metrics.counter("jobs_abandoned").value == 0


_BASE = dict(port=0, workers=0, log_interval=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


class TestServiceFaultPaths:
    def test_config_rejects_bad_fault_spec(self):
        with pytest.raises(ValueError, match="fault"):
            ServiceConfig(faults="bogus=1")

    def test_every_malformed_menu_entry_gets_400_never_500(self):
        async def scenario(service):
            for payload in MALFORMED_MENU:
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/schedule", payload
                )
                assert status == 400, (status, payload)
                assert "error" in body

        run_with_service(scenario)

    def test_dropped_responses_surface_as_connection_errors(self):
        async def scenario(service):
            with pytest.raises(ConnectionError):
                await request_once(
                    "127.0.0.1",
                    service.port,
                    "POST",
                    "/schedule",
                    {"tasks": [[0.0, 10.0, 5.0]]},
                )
            # the one-shot client retried once transparently, so the
            # server dropped (at least) two responses on purpose
            assert service.injector.counts["drop"] >= 2
            assert (
                service.metrics.counter("faults_dropped_responses").value >= 2
            )

        run_with_service(scenario, _config(faults="drop=1.0,seed=1"))

    def test_delayed_responses_still_answer_200(self):
        async def scenario(service):
            t0 = time.perf_counter()
            status, body = await request_once(
                "127.0.0.1",
                service.port,
                "POST",
                "/schedule",
                {"tasks": [[0.0, 10.0, 5.0]], "include_schedule": False},
            )
            assert status == 200
            assert body["energy"] > 0
            assert time.perf_counter() - t0 >= 0.03
            assert service.injector.counts["delay"] == 1

        run_with_service(scenario, _config(faults="delay=1.0:0.03,seed=1"))

    def test_metrics_endpoint_reports_fault_counts(self):
        async def scenario(service):
            await request_once(
                "127.0.0.1",
                service.port,
                "POST",
                "/schedule",
                {"tasks": [[0.0, 10.0, 5.0]], "include_schedule": False},
            )
            status, body = await request_once(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            assert status == 200
            faults = body["faults"]
            assert faults["spec"] == "delay=1:0.001,seed=4"
            assert set(faults) >= {"kill", "delay", "drop", "malform"}

        run_with_service(scenario, _config(faults="delay=1.0:0.001,seed=4"))

    def test_unfaulted_service_reports_no_faults_section(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            assert status == 200
            assert body["faults"] is None
            assert service.injector is None

        run_with_service(scenario)


class TestServiceDegradation:
    @pytest.fixture
    def hanging_solver(self):
        name = "optimal:test-hang-svc"

        @register(name)
        def _hang(request, options):  # pragma: no cover - parked, abandoned
            time.sleep(30.0)

        yield name
        _REGISTRY.pop(name, None)

    def test_hung_optimal_solver_degrades_not_500(self, hanging_solver):
        async def scenario(service):
            t0 = time.perf_counter()
            status, body = await request_once(
                "127.0.0.1",
                service.port,
                "POST",
                "/optimal",
                {"tasks": [[0.0, 10.0, 5.0], [2.0, 12.0, 4.0]], "m": 2,
                 "solver": hanging_solver},
            )
            assert time.perf_counter() - t0 < 10.0
            assert status == 200
            assert body["degraded"] is True
            assert body["degraded_from"] == hanging_solver
            assert body["solver"] == "subinterval-der"
            assert "timeout" in body["degraded_reason"]
            assert body["energy"] > 0

            status, metrics = await request_once(
                "127.0.0.1", service.port, "GET", "/metrics"
            )
            assert status == 200
            assert metrics["metrics"]["counters"]["degraded_total"] >= 1

        run_with_service(
            scenario,
            _config(solver_timeout=0.2, degrade_to="subinterval-der"),
        )

    def test_degraded_results_are_never_cached(self, hanging_solver):
        async def scenario(service):
            payload = {
                "tasks": [[0.0, 10.0, 5.0], [2.0, 12.0, 4.0]], "m": 2,
                "solver": hanging_solver,
            }
            for _ in range(2):
                status, body = await request_once(
                    "127.0.0.1", service.port, "POST", "/optimal", payload
                )
                assert status == 200
                assert body["degraded"] is True
                assert body.get("cache_hit") is not True
            assert service.cache.hits == 0

        run_with_service(
            scenario,
            _config(solver_timeout=0.2, degrade_to="subinterval-der"),
        )
