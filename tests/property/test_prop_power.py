"""Property tests: power-model algebra and quantization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import DiscreteFrequencySet
from repro.power.fitting import fit_linear_given_alpha
from tests.oracles import project_capped_box

from .strategies import power_strategy

_freqs = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@given(power_strategy(), _freqs)
@settings(max_examples=100, deadline=None)
def test_critical_frequency_is_global_min_of_energy_per_work(power, f):
    fc = power.critical_frequency()
    if fc == 0.0:
        return  # no static power: slower is always better
    assert power.energy_per_work(f) >= power.energy_per_work(fc) - 1e-12


@given(power_strategy(), _freqs, st.floats(min_value=0.01, max_value=50))
@settings(max_examples=100, deadline=None)
def test_energy_decomposes_over_work(power, f, work):
    half = power.energy(work / 2, f)
    assert np.isclose(power.energy(work, f), 2 * half, rtol=1e-12)


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=6, unique=True
    ),
    st.floats(min_value=0.05, max_value=120.0),
)
@settings(max_examples=100, deadline=None)
def test_quantize_up_is_tightest_feasible_point(freqs, planned):
    freqs = sorted(freqs)
    fset = DiscreteFrequencySet(
        np.array(freqs), np.array([f**2 for f in freqs])
    )
    q = fset.quantize_up(planned)
    if planned > fset.f_max * (1 + 1e-9):
        assert not q.feasible[0]
    else:
        chosen = q.frequencies[0]
        assert chosen >= planned * (1 - 1e-9)
        lower = [f for f in freqs if f < chosen - 1e-12]
        assert all(f < planned * (1 - 1e-12) for f in lower)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=2.0, max_value=3.5),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_fit_linear_recovers_exact_data(n, alpha, gamma, p0):
    freqs = np.linspace(1.0, 5.0, n + 1)
    powers = gamma * freqs**alpha + p0
    g, p, sse = fit_linear_given_alpha(freqs, powers, alpha)
    assert np.isclose(g, gamma, rtol=1e-6)
    assert np.isclose(p, p0, rtol=1e-6, atol=1e-9)
    assert sse < 1e-12 * max(powers.max() ** 2, 1.0)


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
    st.lists(st.floats(min_value=0.1, max_value=3), min_size=8, max_size=8),
    st.floats(min_value=0.1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_projection_always_feasible(y, u, cap):
    y = np.array(y)
    u = np.array(u[: len(y)])
    out = project_capped_box(y, u, cap)
    assert np.all(out >= -1e-9)
    assert np.all(out <= u + 1e-9)
    assert out.sum() <= cap + 1e-6
