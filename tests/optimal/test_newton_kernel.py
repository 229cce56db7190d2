"""Tests for the structure-exploiting Newton kernels and warm starts."""

import numpy as np
import pytest

from repro.core import Timeline
from repro.core.core_selection import (
    select_core_count,
    select_core_count_optimal,
)
from repro.core.task import TaskSet
from repro.engine import Platform, SolveRequest, solve
from repro.engine.registry import solver_names
from repro.optimal import (
    ConvexProblem,
    InteriorPointSolver,
    WarmStart,
    project_columns,
    repair_warm_start,
    solve_optimal,
    solve_optimal_capped,
    solve_problem,
)
from repro.power import PolynomialPower
from tests.conftest import random_instance
from tests.oracles import project_capped_box

REL_TOL = 1e-9  # pinned cross-kernel / warm-vs-cold agreement


def _problem(seed, n=12, m=4):
    tasks, power = random_instance(seed, n=n)
    return ConvexProblem(Timeline(tasks), m, power)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1.0)


def _carried(sol) -> WarmStart:
    """The final iterate of ``sol`` at its certified continuation level."""
    return WarmStart(x=sol.x, t=sol.profile.t_certified)


class TestKernelEquality:
    """Every kernel must reproduce the dense oracle's energy."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", ["auto", "banded", "schur"])
    def test_structured_matches_dense(self, seed, kernel):
        p = _problem(seed, n=14, m=4)
        dense = InteriorPointSolver(p, kernel="dense").solve()
        structured = InteriorPointSolver(p, kernel=kernel).solve()
        assert structured.profile.kernel in ("banded", "schur", "dense")
        assert _rel(structured.energy, dense.energy) <= REL_TOL

    def test_kernel_actually_differs_from_dense(self):
        p = _problem(0, n=14)
        s = InteriorPointSolver(p, kernel="banded")
        assert s.kernel == "banded"
        d = InteriorPointSolver(p, kernel="dense")
        assert d.kernel == "dense"

    def test_invalid_kernel_rejected(self):
        p = _problem(0)
        with pytest.raises(ValueError, match="kernel"):
            InteriorPointSolver(p, kernel="cholesky")

    @pytest.mark.parametrize("kernel", ["banded", "schur"])
    def test_capped_structured_matches_dense(self, kernel):
        # the capped program has no polish; matching flail floors keep the
        # kernels within a looser (still tight) band
        tasks, power = random_instance(7, n=10)
        dense = solve_optimal_capped(tasks, 4, power, f_max=2.5, kernel="dense")
        structured = solve_optimal_capped(
            tasks, 4, power, f_max=2.5, kernel=kernel
        )
        assert _rel(structured.energy, dense.energy) <= 1e-8
        assert np.all(structured.frequencies <= 2.5 * (1 + 1e-9))


class TestDegenerateStructures:
    """Shapes that stress the banded/Schur assembly paths."""

    def test_single_subinterval(self):
        # all tasks share one window: J = 1, the band is a scalar
        tasks = TaskSet.from_arrays(
            np.zeros(5), np.full(5, 2.0), np.full(5, 0.4)
        )
        power = PolynomialPower(alpha=3.0, static=0.1)
        dense = solve_optimal(tasks, 3, power, kernel="dense")
        for kernel in ("auto", "banded", "schur"):
            sol = solve_optimal(tasks, 3, power, kernel=kernel)
            assert _rel(sol.energy, dense.energy) <= REL_TOL

    def test_full_overlap_heavy_band(self):
        # staircase releases with one common deadline: maximal bandwidth
        n = 8
        rel = np.linspace(0.0, 3.5, n)
        tasks = TaskSet.from_arrays(rel, np.full(n, 4.0), np.full(n, 0.3))
        power = PolynomialPower(alpha=3.0, static=0.1)
        p = ConvexProblem(Timeline(tasks), 2, power)
        assert p.sub_bandwidth == p.n_subs - 1  # every column overlaps
        dense = InteriorPointSolver(p, kernel="dense").solve()
        for kernel in ("banded", "schur"):
            sol = InteriorPointSolver(p, kernel=kernel).solve()
            assert _rel(sol.energy, dense.energy) <= REL_TOL

    def test_single_task(self):
        tasks = TaskSet.from_arrays(
            np.array([0.0]), np.array([1.5]), np.array([0.6])
        )
        power = PolynomialPower(alpha=3.0, static=0.1)
        dense = solve_optimal(tasks, 2, power, kernel="dense")
        for kernel in ("auto", "banded", "schur"):
            sol = solve_optimal(tasks, 2, power, kernel=kernel)
            assert _rel(sol.energy, dense.energy) <= REL_TOL
        # the closed-form optimum stretches the task over its window
        assert dense.available_times[0] == pytest.approx(1.5, rel=1e-6)


class TestWarmStarts:
    def test_warm_matches_cold_every_backend(self):
        tasks, power = random_instance(5, n=10)
        request = SolveRequest(tasks=tasks, platform=Platform(m=4, power=power))
        carried = _carried(solve_optimal(tasks, 4, power))
        for name in solver_names():
            if not name.startswith("optimal:"):
                continue
            cold = solve(name, request, validate=False, materialize=False)
            warm = solve(
                name, request, validate=False, materialize=False, warm=carried
            )
            assert _rel(warm.energy, cold.energy) <= REL_TOL, name

    def test_warm_reduces_newton_iterations(self):
        p = _problem(3, n=12)
        cold = solve_problem(p)
        warm = solve_problem(p, warm=_carried(cold))
        assert warm.profile.warm_started
        assert not cold.profile.warm_started
        assert warm.profile.total_newton < cold.profile.total_newton
        assert _rel(warm.energy, cold.energy) <= REL_TOL

    def test_pg_seed_matches_cold(self):
        p = _problem(9, n=12)
        cold = solve_problem(p)
        seeded = solve_problem(p, warm="pg")
        assert seeded.profile.warm_started
        assert _rel(seeded.energy, cold.energy) <= REL_TOL

    def test_unusable_warm_degrades_to_cold(self):
        p = _problem(2)
        bad = WarmStart(x=np.full(3, np.nan), t=1e6)
        sol = solve_problem(p, warm=bad)
        assert not sol.profile.warm_started  # silently cold
        assert np.isfinite(sol.energy)

    def test_unknown_warm_source_rejected(self):
        p = _problem(2)
        for source in ("tepid", "auto", True):
            with pytest.raises(ValueError, match="warm"):
                solve_problem(p, warm=source)

    def test_repair_restores_strict_feasibility(self):
        # a converged iterate for m=2 hugs constraints the m=1 program
        # violates outright; the repair must pull it strictly inside
        tasks, power = random_instance(4, n=10)
        tl = Timeline(tasks)
        donor = solve_problem(ConvexProblem(tl, 2, power))
        target = ConvexProblem(tl, 1, power)
        x = repair_warm_start(target, donor.x)
        assert x is not None
        assert np.all(x > 0.0)
        assert np.all(x < target.var_len)
        assert np.all(target.column_sums(x) < target.caps)

    def test_repair_rejects_wrong_shape(self):
        p = _problem(2)
        assert repair_warm_start(p, np.ones(p.k + 1)) is None
        assert repair_warm_start(p, None) is None


class TestCoreSelectionSweep:
    def test_heuristic_sweep_shares_timeline(self, monkeypatch):
        import repro.core.core_selection as cs

        built = []
        real = cs.Timeline

        def counting(tasks):
            built.append(1)
            return real(tasks)

        monkeypatch.setattr(cs, "Timeline", counting)
        tasks, power = random_instance(1, n=10)
        sel = select_core_count(tasks, 5, power)
        assert len(built) == 1  # one timeline for the whole sweep
        assert sel.best_m in range(1, 6)
        assert len(sel.profile()) == 5

    def test_optimal_sweep_matches_cold_solves(self):
        tasks, power = random_instance(6, n=10)
        sel = select_core_count_optimal(tasks, 4, power)
        assert len(sel.newton_iterations) == 4
        for i, m in enumerate(sel.counts):
            cold = solve_optimal(tasks, int(m), power, kernel="dense")
            assert _rel(sel.energies[i], cold.energy) <= REL_TOL
        # energies decrease weakly with more cores (caps only loosen)
        assert np.all(np.diff(sel.energies) <= 1e-9)
        assert sel.best is not None

    def test_optimal_sweep_validates_bounds(self):
        tasks, power = random_instance(0, n=6)
        with pytest.raises(ValueError):
            select_core_count_optimal(tasks, 0, power)


class TestEngineProfile:
    def test_extras_carry_kernel_profile(self):
        tasks, power = random_instance(8, n=10)
        req = SolveRequest(tasks=tasks, platform=Platform(m=4, power=power))
        res = solve(
            "optimal:interior-point", req, validate=False, materialize=False
        )
        ex = res.extras
        assert ex["kernel"] in ("banded", "schur", "dense")
        assert ex["newton_iterations"] == sum(ex["newton_per_center"])
        assert ex["factor_time_s"] >= 0.0
        assert ex["dense_fallbacks"] == 0
        assert isinstance(ex["warm_started"], bool)

    def test_repeat_solve_on_one_request_is_identical(self):
        # nothing carries over between solves: the second solve of the same
        # request starts cold and lands on the same bits
        tasks, power = random_instance(8, n=10)
        req = SolveRequest(tasks=tasks, platform=Platform(m=4, power=power))
        r1 = solve("optimal:interior-point", req, validate=False, materialize=False)
        r2 = solve("optimal:interior-point", req, validate=False, materialize=False)
        assert not r1.extras["warm_started"] and not r2.extras["warm_started"]
        assert r2.energy == r1.energy
        assert r2.extras.keys() == r1.extras.keys()
        for key, value in r1.extras.items():
            if key == "factor_time_s":
                continue  # wall-clock
            np.testing.assert_array_equal(r2.extras[key], value, err_msg=key)


class TestColumnProjection:
    """The vectorized feasible-set projection against the scalar oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_percolumn_bisection(self, seed):
        rng = np.random.default_rng(seed)
        tasks, power = random_instance(seed, n=15)
        p = ConvexProblem(Timeline(tasks), 3, power)
        for _ in range(5):
            y = rng.uniform(-2.0, 3.0, p.k) * np.maximum(p.var_len, 0.1)
            out = project_columns(p, y)
            ref = np.clip(y, 0.0, p.var_len)
            for j in range(p.n_subs):
                mask = p.var_sub == j
                if mask.any():
                    ref[mask] = project_capped_box(
                        y[mask], p.var_len[mask], p.caps[j]
                    )
            np.testing.assert_allclose(out, ref, atol=1e-10)
            col = np.bincount(p.var_sub, weights=out, minlength=p.n_subs)
            assert np.all(col <= p.caps * (1 + 1e-12) + 1e-12)

    def test_interior_point_untouched(self):
        # a strictly feasible point projects to itself
        p = _problem(1)
        x = p.feasible_start()
        np.testing.assert_allclose(project_columns(p, x), x, rtol=1e-12)
