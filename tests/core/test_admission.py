"""Tests for frequency-capped admission control."""

import numpy as np
import pytest

from repro.core import (
    AdmissionController,
    SubintervalScheduler,
    Task,
    TaskSet,
    Timeline,
)
from repro.power import PolynomialPower
from repro.service.loadgen import _make_admit_stream
from repro.sim import assert_valid
from tests.oracles import admission_oracle


@pytest.fixture
def power():
    return PolynomialPower(alpha=3.0, static=0.05)


class TestNoCap:
    def test_everything_admissible(self, power):
        ctl = AdmissionController(1, power, f_max=None)
        # three tasks requiring impossible simultaneous speed: still accepted
        for _ in range(3):
            d = ctl.try_admit(Task(0.0, 1.0, 100.0))
            assert d.accepted


class TestCapEnforcement:
    def test_isolated_impossible_task_rejected(self, power):
        ctl = AdmissionController(4, power, f_max=1.0)
        d = ctl.try_admit(Task(0.0, 2.0, 4.0))  # needs f = 2 alone
        assert not d.accepted
        assert "isolation" in d.reason
        assert ctl.committed is None

    def test_contention_rejection(self, power):
        # each task alone needs f = 1 for its whole window; two of them on
        # one core cannot both fit at f_max = 1
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        d = ctl.try_admit(Task(0.0, 4.0, 4.0))
        assert not d.accepted
        assert "collision-free" in d.reason

    def test_exact_boundary_accepted(self, power):
        # two tasks each needing half the window at f_max: exactly feasible
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted

    def test_second_core_unlocks_admission(self, power):
        ctl = AdmissionController(2, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        d = ctl.try_admit(Task(0.0, 4.0, 4.0))
        assert not d.accepted

    def test_disjoint_windows_dont_interfere(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert ctl.try_admit(Task(10.0, 14.0, 4.0)).accepted


class TestAccounting:
    def test_marginal_energy_sums_to_total(self, power):
        ctl = AdmissionController(2, power, f_max=5.0)
        tasks = [Task(0, 10, 4), Task(2, 12, 6), Task(4, 14, 3)]
        decisions = ctl.admit_all(tasks)
        assert all(d.accepted for d in decisions)
        total = sum(d.marginal_energy for d in decisions)
        assert total == pytest.approx(ctl.current_energy)
        direct = SubintervalScheduler(TaskSet(tasks), 2, power).final("der")
        assert ctl.current_energy == pytest.approx(direct.energy)

    def test_accepted_schedule_is_valid(self, power):
        ctl = AdmissionController(2, power, f_max=5.0)
        d = ctl.try_admit(Task(0, 10, 4))
        assert d.schedule is not None
        assert_valid(d.schedule.schedule)

    def test_rejection_leaves_state_unchanged(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        ctl.try_admit(Task(0.0, 4.0, 4.0))
        e = ctl.current_energy
        ctl.try_admit(Task(0.0, 4.0, 4.0))  # rejected
        assert ctl.current_energy == e
        assert len(ctl.committed) == 1

    def test_reset(self, power):
        ctl = AdmissionController(1, power, f_max=2.0)
        ctl.try_admit(Task(0, 4, 2))
        ctl.reset()
        assert ctl.committed is None
        assert ctl.current_energy == 0.0

    def test_len_counts_committed_tasks(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert len(ctl) == 0
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert len(ctl) == 1
        assert not ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert len(ctl) == 1
        ctl.reset()
        assert len(ctl) == 0
        # the reset also cleared the flow: the same task fits again
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert len(ctl) == 1

    def test_validation(self, power):
        with pytest.raises(ValueError):
            AdmissionController(0, power)
        with pytest.raises(ValueError):
            AdmissionController(1, power, f_max=0.0)


class TestCrossValidation:
    def test_accepted_sets_schedulable_at_fmax(self, power):
        """Everything the controller accepts must admit a schedule whose
        frequencies stay within the cap — verified constructively."""
        rng = np.random.default_rng(4)
        ctl = AdmissionController(2, power, f_max=1.0)
        for _ in range(12):
            r = float(rng.uniform(0, 20))
            c = float(rng.uniform(1, 6))
            w = float(rng.uniform(c, 4 * c))  # window >= c so intensity <= 1
            ctl.try_admit(Task(r, r + w, c))
        committed = ctl.committed
        if committed is None:
            pytest.skip("nothing admitted")
        assert ctl.is_schedulable(committed)
        # constructive check: schedule the committed set with the pipeline
        # and confirm all frequencies <= f_max (F2 uses minimal frequencies
        # only when contention forces it; cap check is on the exact test)
        from repro.optimal import realize_demands

        real = realize_demands(committed, 2, committed.works / 1.0)
        assert real.feasible


def _replay(ctl: AdmissionController, stream) -> list[tuple[bool, float | None]]:
    decisions = (ctl.try_admit(Task(*row), materialize=False) for row in stream)
    return [(d.accepted, d.marginal_energy) for d in decisions]


class TestLiveFlow:
    """The controller's live flow against the from-scratch flow test."""

    def test_task_filling_its_window_accepted(self, power):
        ctl = AdmissionController(2, power, f_max=2.0)
        assert ctl.try_admit(Task(1.0, 4.0, 6.0)).accepted  # C/f_max = window

    def test_m_tasks_exactly_fill_m_cores(self, power):
        # core time 2 x 4 = 8 is exactly the demand of the first three
        stream = [[0.0, 4.0, 8.0], [0.0, 2.0, 4.0], [2.0, 4.0, 4.0], [1.0, 3.0, 0.5]]
        ctl = AdmissionController(2, power, f_max=2.0)
        got = _replay(ctl, stream)
        assert [a for a, _ in got] == [True, True, True, False]
        assert got == list(admission_oracle(stream, 2, power, 2.0))

    def test_unmaterialized_admit_builds_no_network(self, power, monkeypatch):
        """The daemon's path builds no task set or timeline."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("built during an admit")

        for cls in (TaskSet, Timeline):
            monkeypatch.setattr(cls, "__init__", forbidden)
        ctl = AdmissionController(4, power, f_max=2.0)
        stream = _make_admit_stream(80, 1)
        verdicts = [ctl.try_admit(Task(*row), materialize=False).accepted for row in stream]
        assert 0 < len(ctl) == sum(verdicts) < len(stream)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_streams_match_the_oracle(self, seed):
        power = PolynomialPower(alpha=3.0, static=0.1)
        stream = _make_admit_stream(150, seed)
        got = _replay(AdmissionController(4, power, f_max=2.0), stream)
        assert got == list(admission_oracle(stream, 4, power, 2.0))

    def test_failed_materialization_keeps_the_flow(self, power, monkeypatch):
        stream = _make_admit_stream(40, 3)
        ctl = AdmissionController(4, power, f_max=2.0)
        _replay(ctl, stream[:20])
        committed, energy = ctl.committed, ctl.current_energy
        boundaries, flow = ctl.session.boundaries.copy(), ctl._flow

        def boom():
            raise RuntimeError("materialization failed")

        monkeypatch.setattr(ctl.session, "result", boom)
        fits = next(
            row for row in stream[20:]
            if ctl.is_schedulable(TaskSet([*committed, Task(*row)]))
        )
        with pytest.raises(RuntimeError):
            ctl.try_admit(Task(*fits))
        assert list(ctl.committed) == list(committed)
        assert ctl.current_energy == energy
        np.testing.assert_array_equal(ctl.session.boundaries, boundaries)
        assert ctl._flow is flow
        monkeypatch.undo()
        rest = [row for row in stream[20:] if row is not fits]
        got = _replay(ctl, rest)
        expected = list(admission_oracle(stream[:20] + rest, 4, power, 2.0))[20:]
        assert [a for a, _ in got] == [a for a, _ in expected]
