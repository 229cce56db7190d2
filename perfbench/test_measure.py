"""Tests of the benchmark's measurement helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os

import pytest

from measure import (
    NOMINAL_CALIBRATION,
    HostSpeed,
    due_time_latency,
    group_cpu_s,
    group_members,
    peak_rss_mb,
    percentile,
    supports_percentile,
    unattributed_ms,
)


class TestPercentileRule:
    def test_ten_samples_beyond(self):
        assert supports_percentile(1000, 99)
        assert not supports_percentile(999, 99)
        assert supports_percentile(100, 90)
        assert not supports_percentile(99, 90)
        assert supports_percentile(20, 50)

    def test_interpolates_like_numpy(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
        assert percentile([7.0], 99) == 7.0


class TestDueTimeLatency:
    def test_latency_counts_from_the_due_time(self):
        latency, lateness = due_time_latency(due=1.000, sent=1.002, done=1.010)
        assert latency == pytest.approx(10.0)
        assert lateness == pytest.approx(2.0)

    def test_on_time_send_has_no_lateness(self):
        assert due_time_latency(5.0, 5.0, 5.5) == (pytest.approx(500.0), 0.0)

    def test_rejects_out_of_order_times(self):
        with pytest.raises(ValueError):
            due_time_latency(due=2.0, sent=1.0, done=3.0)


def _fake_proc(root, procs):
    """A /proc lookalike: ``procs`` maps pid -> (ppid, utime, stime, vmhwm_kb, state).

    Every process's group is its oldest ancestor below pid 1.
    """
    for pid, (ppid, utime, stime, hwm, state) in procs.items():
        d = root / str(pid)
        d.mkdir()
        pgrp = pid
        while procs[pgrp][0] != 1:
            pgrp = procs[pgrp][0]
        rest = [state, str(ppid), str(pgrp)] + ["0"] * 8 + [str(utime), str(stime)] + ["0"] * 10
        (d / "stat").write_text(f"{pid} (py (worker) x) " + " ".join(rest) + "\n")
        (d / "status").write_text(f"Name:\tpy\nVmHWM:\t {hwm} kB\nVmRSS:\t 1 kB\n")
    (root / "self").mkdir()  # non-numeric entries are skipped
    return str(root)


class TestProcessGroup:
    PROCS = {
        100: (1, 50, 10, 204800, "S"),  # the daemon
        101: (100, 5, 5, 1024, "S"),  # forkserver, child of the daemon
        102: (101, 300, 20, 2048, "R"),  # pool worker: a child of the forkserver
        103: (101, 280, 30, 2048, "S"),  # pool worker
        104: (101, 0, 0, 0, "Z"),  # a worker that exited, not yet reaped
        200: (1, 999, 999, 4096, "S"),  # an unrelated process
    }

    def test_group_members_skip_zombies(self, tmp_path):
        proc = _fake_proc(tmp_path, self.PROCS)
        assert sorted(group_members(100, proc)) == [100, 101, 102, 103]
        assert group_members(200, proc) == [200]

    def test_cpu_sums_the_whole_group(self, tmp_path):
        proc = _fake_proc(tmp_path, self.PROCS)
        ticks = os.sysconf("SC_CLK_TCK")
        assert group_cpu_s(100, proc) == pytest.approx(700 / ticks)  # forkserver and workers too
        assert group_cpu_s(200, proc) == pytest.approx(1998 / ticks)
        assert group_cpu_s(102, proc) == 0.0  # a worker heads no group

    def test_peak_rss_of_one_process(self, tmp_path):
        proc = _fake_proc(tmp_path, self.PROCS)
        assert peak_rss_mb(100, proc) == 200.0

    def test_live_process(self):
        assert os.getpid() in group_members(os.getpgrp())
        assert group_cpu_s(os.getpgrp()) > 0.0
        assert peak_rss_mb(os.getpid()) > 1.0


class TestHostSpeed:
    def test_factor_is_the_mean_rate_over_nominal(self):
        speed = HostSpeed()
        speed.rates = [0.5 * NOMINAL_CALIBRATION, 0.9 * NOMINAL_CALIBRATION]
        assert speed.factor() == pytest.approx(0.7)

    def test_each_sample_times_one_slice(self):
        speed = HostSpeed(slice_s=0.005)
        speed.sample()
        speed.sample()
        assert len(speed.rates) == 2 and min(speed.rates) > 0.0
        assert speed.spent_s >= 0.01


class TestAttribution:
    def test_unattributed_is_the_remainder(self):
        assert unattributed_ms(12.0, [5.5, 3.0, 1.5]) == pytest.approx(2.0)
        assert unattributed_ms(10.0, []) == 10.0
