"""Unit tests for the SWF trace importer."""

import pytest

from repro.core import SubintervalScheduler
from repro.power import PolynomialPower
from repro.sim import assert_valid
from repro.workloads.swf import parse_swf, taskset_from_swf, write_swf

SAMPLE = """\
; Synthetic SWF trace for tests
; fields: id submit wait run procs cpu mem reqprocs reqtime ...
1 0 0 100 4 -1 -1 4 300 -1 -1 -1 -1 -1 -1 -1 -1 -1
2 50 5 200 2 -1 -1 2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3 120 0 -1 1 -1 -1 1 100 -1 -1 -1 -1 -1 -1 -1 -1 -1
4 130 0 50 1 -1 -1 1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1
"""


class TestParse:
    def test_comments_and_cancelled_jobs_skipped(self):
        jobs = parse_swf(SAMPLE)
        assert [j.job_id for j in jobs] == [1, 2, 4]  # job 3 has run_time -1

    def test_fields(self):
        j = parse_swf(SAMPLE)[0]
        assert j.submit_time == 0.0
        assert j.run_time == 100.0
        assert j.n_procs == 4
        assert j.requested_time == 300.0
        assert j.has_request

    def test_missing_request_flag(self):
        j = parse_swf(SAMPLE)[1]
        assert not j.has_request

    def test_short_line_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            parse_swf("1 2 3\n")

    def test_malformed_number_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_swf("1 0 0 10 1 -1 -1 1 20\nx 0 0 10 1 -1 -1 1 20\n")

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no runnable jobs"):
            parse_swf("; only comments\n")


class TestTasksetConversion:
    def test_deadline_uses_request_when_larger(self):
        ts = taskset_from_swf(SAMPLE)
        # job 1: submit 0, request 300 > 2*100 -> deadline 300
        t = next(t for t in ts if t.name == "job1")
        assert t.deadline == pytest.approx(300.0)
        assert t.work == pytest.approx(100.0)

    def test_slack_fallback(self):
        ts = taskset_from_swf(SAMPLE, slack_factor=3.0)
        t = next(t for t in ts if t.name == "job2")
        assert t.deadline == pytest.approx(50 + 3 * 200)

    def test_slack_overrides_tight_request(self):
        # job 4: request 60 < 2*50=100 -> slack fallback wins
        ts = taskset_from_swf(SAMPLE)
        t = next(t for t in ts if t.name == "job4")
        assert t.deadline == pytest.approx(130 + 100)

    def test_max_jobs(self):
        ts = taskset_from_swf(SAMPLE, max_jobs=2)
        assert len(ts) == 2

    def test_nominal_frequency_scales_work(self):
        ts = taskset_from_swf(SAMPLE, nominal_frequency=2.0)
        t = next(t for t in ts if t.name == "job1")
        assert t.work == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            taskset_from_swf(SAMPLE, slack_factor=1.0)
        with pytest.raises(ValueError):
            taskset_from_swf(SAMPLE, nominal_frequency=0.0)

    def test_trace_schedules_end_to_end(self):
        ts = taskset_from_swf(SAMPLE)
        res = SubintervalScheduler(ts, 2, PolynomialPower(3.0, 0.1)).final("der")
        assert_valid(res.schedule, tol=1e-6)


class TestWriter:
    def test_roundtrip(self):
        jobs = parse_swf(SAMPLE)
        text = write_swf(jobs, header="regenerated")
        again = parse_swf(text)
        assert [(j.job_id, j.run_time) for j in again] == [
            (j.job_id, j.run_time) for j in jobs
        ]
        assert text.startswith("; regenerated")
