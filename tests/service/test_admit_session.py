"""Session-backed admission: per-platform sessions, delta accounting, spans."""

from repro.engine import Platform
from repro.obs.report import load_spans
from repro.service import ServiceConfig
from repro.service.http11 import HttpClient, request_once
from repro.service.loadgen import run_loadgen
from tests.conftest import run_with_service

_BASE = dict(port=0, workers=0, log_interval=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


class TestPerPlatformSessions:
    def test_platforms_do_not_share_committed_sets(self):
        """Admissions on m=1/f_max=1 must not consume m=4 capacity."""

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                # saturate the single-core platform
                _, a = await client.request(
                    "POST", "/admit",
                    {"task": [0.0, 10.0, 10.0], "m": 1, "f_max": 1.0},
                )
                _, b = await client.request(
                    "POST", "/admit",
                    {"task": [0.0, 10.0, 10.0], "m": 1, "f_max": 1.0},
                )
                assert a["accepted"] is True and b["accepted"] is False
                assert a["f_max"] == 1.0
                # the wider default platform is untouched
                _, c = await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 10.0]}
                )
                assert c["accepted"] is True
                assert c["committed"] == 1
            finally:
                await client.close()

        run_with_service(scenario, _config(m=4, f_max=1.0))

    def test_first_admit_creates_the_default_platform_session(self):
        config = _config(m=2, alpha=2.5, static=0.2, f_max=1.5)

        async def scenario(service):
            assert service._admission_pool == {}
            await request_once(
                "127.0.0.1", service.port, "POST", "/admit",
                {"task": [0.0, 10.0, 4.0]},
            )
            key = Platform.from_params(
                m=2, alpha=2.5, static=0.2, f_max=1.5
            ).signature()
            assert list(service._admission_pool) == [key]
            ctl = service._admission_pool[key]
            assert (ctl.m, ctl.f_max, len(ctl)) == (2, 1.5, 1)
            assert (ctl.power.alpha, ctl.power.static, ctl.power.gamma) == (
                2.5, 0.2, 1.0,
            )

        run_with_service(scenario, config)

    def test_reset_targets_one_platform(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 4.0]}
                )
                await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 4.0], "m": 8}
                )
                _, r = await client.request(
                    "POST", "/admit", {"reset": True, "m": 8}
                )
                assert r["committed"] == 0
                # the default platform still holds its task
                _, d = await client.request(
                    "POST", "/admit", {"task": [1.0, 11.0, 2.0]}
                )
                assert d["committed"] == 2
            finally:
                await client.close()

        run_with_service(scenario)

    def test_admit_reports_delta_accounting(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                _, first = await client.request(
                    "POST", "/admit", {"task": [0.0, 10.0, 4.0]}
                )
                _, second = await client.request(
                    "POST", "/admit", {"task": [20.0, 30.0, 4.0]}
                )
                assert first["accepted"] and second["accepted"]
                assert first["touched_subintervals"] == first["total_subintervals"] == 1
                # disjoint window: only the new column is touched (the
                # total counts the empty gap column between the windows)
                assert second["touched_subintervals"] == 1
                assert second["total_subintervals"] == 3
            finally:
                await client.close()

        run_with_service(scenario)

    def test_admit_emits_session_delta_spans(self, tmp_path):
        path = tmp_path / "out.jsonl"

        async def scenario(service):
            # an accept, then a reject: the single core at f_max=1 is full
            for _ in range(2):
                await request_once(
                    "127.0.0.1", service.port, "POST", "/admit",
                    {"task": [0.0, 10.0, 10.0], "m": 1, "f_max": 1.0},
                )
            snap = service.metrics.snapshot()
            hist = snap["histograms"].get("stage_ms:session.delta")
            assert hist is not None and hist["count"] >= 1
            check = snap["histograms"].get("stage_ms:admission.check")
            assert check is not None and check["count"] == 2

        run_with_service(scenario, _config(trace_path=str(path)))
        checks = [sp for sp in load_spans(path) if sp["name"] == "admission.check"]
        assert [sp["attrs"]["accepted"] for sp in checks] == [True, False]
        # the accept pushes one path; the full core leaves the reject none
        assert [sp["attrs"]["paths"] for sp in checks] == [1, 0]
        assert [sp["attrs"]["tasks"] for sp in checks] == [1, 2]
        assert [sp["attrs"]["subintervals"] for sp in checks] == [1, 1]


class TestAdmitStreamLoadgen:
    def test_admit_stream_round_trip(self):
        async def scenario(service):
            stats = await run_loadgen(
                "127.0.0.1", service.port,
                n_requests=20, concurrency=4, seed=7,
                admit_stream=True, admit_rate=2.0,
            )
            assert stats["ok"] == 20
            assert stats["errors"] == 0
            admit = stats["admit"]
            assert admit["accepted"] + admit["rejected"] == 20
            assert admit["accepted"] > 0
            snap = service.metrics.snapshot()["counters"]
            assert snap["requests_total:/admit"] >= 20

        run_with_service(scenario)
