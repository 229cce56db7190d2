"""Smoke + shape tests for every figure/table module (tiny rep counts).

These confirm each experiment runs end-to-end and exhibits the *qualitative*
shape the paper reports; the benchmarks regenerate them at full scale.
"""

import numpy as np

from repro.experiments import (
    core_selection_exp,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table2,
)

REPS = 3
SEED = 123


class TestFig6:
    def test_runs_and_shape(self):
        res = fig6.run(reps=REPS, seed=SEED)
        assert res.x_values == fig6.P0_VALUES
        f2 = res.series["F2"]
        f1 = res.series["F1"]
        # DER-based final stays below even-based final everywhere (paper)
        assert all(a <= b + 0.05 for a, b in zip(f2, f1))
        # F2 stays near-optimal
        assert max(f2) < 1.35


class TestFig7:
    def test_runs_and_shape(self):
        res = fig7.run(reps=REPS, seed=SEED)
        assert res.x_values == fig7.ALPHA_VALUES
        f2 = res.series["F2"]
        i1 = res.series["I1"]
        assert all(a <= b + 1e-9 for a, b in zip(f2, i1))


class TestFig8:
    def test_runs_and_shape(self):
        res = fig8.run(reps=REPS, seed=SEED)
        f2 = np.array(res.series["F2"])
        # more cores -> F2 approaches optimal; m=12 must beat m=2 clearly
        assert f2[-1] < f2[0] + 1e-9
        assert f2[-1] < 1.1


class TestFig9:
    def test_runs_and_shape(self):
        res = fig9.run(reps=REPS, seed=SEED)
        assert len(res.series["F2"]) == len(fig9.INTENSITY_LOWS)
        assert max(res.series["F2"]) < 1.5


class TestFig10:
    def test_runs_and_shape(self):
        res = fig10.run(reps=REPS, seed=SEED)
        f2 = res.series["F2"]
        # n=5 on 4 cores: nearly uncontended, so near-ideal
        assert f2[0] < 1.1


class TestTable2:
    def test_reduced_grid(self):
        res = table2.run(
            reps=2, seed=SEED, alphas=(2.0, 3.0), p0s=(0.0, 0.2)
        )
        assert res.nec_f1.shape == (2, 2)
        # F2 never worse than F1 on average
        assert np.all(res.nec_f2 <= res.nec_f1 + 0.05)
        out = res.format()
        assert "NEC of F1" in out and "NEC of F2" in out
        csv = res.to_csv()
        assert csv.splitlines()[0] == "alpha,p0,nec_f1,nec_f2"


class TestFig11:
    def test_runs_and_reports_misses(self):
        res = fig11.run(reps=2, seed=SEED)
        assert res.x_values == fig11.TASK_COUNTS
        extra = res.extra_series
        assert "miss_F2" in extra
        # F2's miss probability never exceeds I1's (paper's qualitative claim)
        assert all(
            a <= b + 1e-9 for a, b in zip(extra["miss_F2"], extra["miss_I1"])
        )


class TestCoreSelection:
    def test_runs_and_saves_energy(self):
        res = core_selection_exp.run(reps=2, seed=SEED, m_max=6, p0_values=(0.0, 0.4))
        assert np.all(res.savings >= -1e-9)
        # selection matters more at high static power
        assert res.savings[-1] >= res.savings[0] - 1e-9
        assert "core-count selection" in res.format()
