"""Unit/behavioural tests for the SubintervalScheduler pipeline."""

import pytest

from repro.core import SubintervalScheduler, TaskSet, schedule_taskset
from repro.power import PolynomialPower
from repro.sim import assert_valid
from repro.workloads import SIX_TASK_EXPECTED
from tests.conftest import random_instance
from tests.oracles import scalar_slots


class TestPaperExample:
    def test_final_energies_match_paper(self, six_tasks, cube_power):
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        assert s.final("even").energy == pytest.approx(
            SIX_TASK_EXPECTED["energy_F1"], abs=1e-3
        )
        assert s.final("der").energy == pytest.approx(
            SIX_TASK_EXPECTED["energy_F2"], abs=1e-3
        )

    def test_paper_f1_frequencies(self, six_tasks, cube_power):
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        res = s.final("even")
        # τ1 runs at 8/(8 + 8/5); τ6 at 6/(8 + 8/5)
        assert res.frequencies[0] == pytest.approx(8 / (8 + 8 / 5))
        assert res.frequencies[5] == pytest.approx(6 / (8 + 8 / 5))

    def test_kinds(self, six_tasks, cube_power):
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        r = s.run_all()
        assert set(r) == {"I1", "F1", "I2", "F2"}
        for kind, res in r.items():
            assert res.kind == kind


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("method", ["even", "der"])
    def test_final_schedules_valid(self, seed, method):
        tasks, power = random_instance(seed)
        s = SubintervalScheduler(tasks, 4, power)
        res = s.final(method)
        assert_valid(res.schedule)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("method", ["even", "der"])
    def test_intermediate_schedules_valid(self, seed, method):
        tasks, power = random_instance(seed)
        s = SubintervalScheduler(tasks, 4, power)
        res = s.intermediate(method)
        assert_valid(res.schedule, tol=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_final_improves_on_intermediate(self, seed):
        """Paper: E^F1 <= E^I1 and E^F2 <= E^I2."""
        tasks, power = random_instance(seed)
        s = SubintervalScheduler(tasks, 4, power)
        assert s.final("even").energy <= s.intermediate("even").energy + 1e-9
        assert s.final("der").energy <= s.intermediate("der").energy + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_intermediate_bound_vs_ideal(self, seed):
        """Paper: E^I1 <= (n_max/m)^(alpha-1) * E^O."""
        tasks, power = random_instance(seed, p0=0.0)
        m = 4
        s = SubintervalScheduler(tasks, m, power)
        n_max = max(s.timeline.max_overlap(), m)
        bound = (n_max / m) ** (power.alpha - 1.0) * s.ideal_energy
        assert s.intermediate("even").energy <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_energy_matches_schedule_energy(self, seed):
        tasks, power = random_instance(seed)
        s = SubintervalScheduler(tasks, 4, power)
        for res in s.run_all().values():
            assert res.schedule.total_energy() == pytest.approx(
                res.energy, rel=1e-9
            )

    def test_all_light_instance_achieves_ideal(self, cube_power):
        # fewer tasks than cores: every subinterval is light, the final
        # schedule equals the ideal case
        tasks = TaskSet.from_tuples([(0, 10, 4), (2, 12, 3), (1, 8, 2)])
        s = SubintervalScheduler(tasks, 4, cube_power)
        assert s.final("der").energy == pytest.approx(s.ideal_energy)
        assert s.final("even").energy == pytest.approx(s.ideal_energy)

    def test_single_task(self, static_power):
        tasks = TaskSet.from_tuples([(0, 10, 4)])
        s = SubintervalScheduler(tasks, 2, static_power)
        res = s.final("der")
        assert_valid(res.schedule)
        assert res.energy == pytest.approx(s.ideal_energy)

    def test_uniprocessor(self):
        tasks, power = random_instance(11, n=6)
        s = SubintervalScheduler(tasks, 1, power)
        for res in s.run_all().values():
            assert_valid(res.schedule, tol=1e-7)

    def test_rejects_bad_m(self, six_tasks, cube_power):
        with pytest.raises(ValueError):
            SubintervalScheduler(six_tasks, 0, cube_power)


class TestConvenience:
    def test_schedule_taskset_default_is_der(self, six_tasks, cube_power):
        res = schedule_taskset(six_tasks, 4, cube_power)
        assert res.kind == "F2"

    def test_plan_caching(self, six_tasks, cube_power):
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        assert s.plan("der") is s.plan("der")
        with pytest.raises(ValueError):
            s.plan("bogus")  # type: ignore[arg-type]

    def test_clamped_tasks_leave_slack_idle(self):
        # with large static power, tasks use less than their available time
        power = PolynomialPower(alpha=2.0, static=1.0)  # f_crit = 1.0
        tasks = TaskSet.from_tuples([(0, 20, 2)])
        s = SubintervalScheduler(tasks, 1, power)
        res = s.final("der")
        total_exec = sum(seg.duration for seg in res.schedule)
        assert total_exec == pytest.approx(2.0)  # C / f_crit, not 20


class TestSlotPacking:
    """The batched cumsum packing agrees with the per-subinterval loop."""

    @staticmethod
    def _assert_same_slots(got, want):
        assert len(got) == len(want)
        for g_slots, w_slots in zip(got, want):
            assert len(g_slots) == len(w_slots)
            for g, w in zip(g_slots, w_slots):
                assert (g.task_id, g.core) == (w.task_id, w.core)
                assert g.start == pytest.approx(w.start, abs=1e-9)
                assert g.end == pytest.approx(w.end, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("method", ["even", "der"])
    def test_slots_match_scalar_reference(self, seed, method):
        tasks, power = random_instance(seed, n=14)
        s = SubintervalScheduler(tasks, 3, power)
        plan = s.plan(method)
        self._assert_same_slots(
            s._slots_flat(plan).to_slot_lists(), scalar_slots(s, plan)
        )

    def test_paper_example_slots(self, six_tasks, cube_power):
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        for method in ("even", "der"):
            plan = s.plan(method)
            self._assert_same_slots(
                s._slots_flat(plan).to_slot_lists(), scalar_slots(s, plan)
            )


class TestFinalFromPlan:
    def test_rejects_plan_on_refined_timeline(self, six_tasks, cube_power):
        # same tasks and m, but a decomposition refined with an extra split
        # point: plan columns would be read against the wrong subintervals
        from repro.core import Timeline, build_allocation_plan

        refined = Timeline(six_tasks, extra_boundaries=[7.0])
        plan = build_allocation_plan(refined, 4, "even")
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        with pytest.raises(ValueError, match="different subinterval decomposition"):
            s.final_from_plan(plan)

    def test_accepts_equivalent_foreign_timeline(self, six_tasks, cube_power):
        # a separately-built but identical decomposition is fine
        from repro.core import Timeline, build_allocation_plan

        other = Timeline(six_tasks)
        plan = build_allocation_plan(other, 4, "even")
        s = SubintervalScheduler(six_tasks, 4, cube_power)
        res = s.final_from_plan(plan, kind="F1")
        assert res.energy == pytest.approx(s.final("even").energy)
