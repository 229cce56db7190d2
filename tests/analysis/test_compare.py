"""Tests for schedule comparison summaries."""

import pytest

from repro.analysis import comparison_table, summarize
from repro.core import SubintervalScheduler
from repro.optimal import solve_optimal
from tests.conftest import random_instance


@pytest.fixture(scope="module")
def instance():
    tasks, power = random_instance(0, n=10)
    sch = SubintervalScheduler(tasks, 4, power)
    opt = solve_optimal(tasks, 4, power)
    return sch, opt


class TestSummarize:
    def test_fields(self, instance):
        sch, opt = instance
        res = sch.final("der")
        s = summarize("F2", res.schedule, optimal_energy=opt.energy)
        assert s.energy == pytest.approx(res.energy)
        assert s.nec == pytest.approx(res.energy / opt.energy)
        assert s.valid
        assert s.switches > 0
        assert s.busy_time > 0

    def test_no_optimal_means_no_nec(self, instance):
        sch, _ = instance
        s = summarize("F2", sch.final("der").schedule)
        assert s.nec is None

    def test_invalid_flagged(self, instance):
        from repro.core import Schedule

        sch, _ = instance
        base = sch.final("der").schedule
        broken = Schedule(base.tasks, base.n_cores, base.power, list(base)[:1])
        s = summarize("broken", broken)
        assert not s.valid


class TestComparisonTable:
    def test_renders_all_schedules(self, instance):
        sch, opt = instance
        table = comparison_table(
            {
                "F1": sch.final("even").schedule,
                "F2": sch.final("der").schedule,
            },
            optimal_energy=opt.energy,
            title="comparison",
        )
        assert "F1" in table and "F2" in table
        assert "comparison" in table
        assert "NEC" in table

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comparison_table({})
