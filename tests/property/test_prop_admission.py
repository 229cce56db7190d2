"""Property tests: admission control consistency with the flow substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController
from repro.power import PolynomialPower
from tests.oracles import admission_oracle

from .strategies import cores_strategy, tasks_strategy

_POWER = PolynomialPower(alpha=3.0, static=0.05)


@given(tasks_strategy(max_size=8), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_committed_set_is_always_schedulable(tasks, m):
    """Whatever subset the controller admits must pass its own exact test."""
    ctl = AdmissionController(m, _POWER, f_max=1.0)
    ctl.admit_all(tasks)
    committed = ctl.committed
    if committed is not None:
        assert ctl.is_schedulable(committed)


@given(tasks_strategy(max_size=8), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_uncapped_controller_admits_everything(tasks, m):
    ctl = AdmissionController(m, _POWER, f_max=None)
    decisions = ctl.admit_all(tasks)
    assert all(d.accepted for d in decisions)
    assert len(ctl.committed) == len(tasks)


@given(tasks_strategy(max_size=6), cores_strategy, st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_schedulability_monotone_in_cap(tasks, m, f_max):
    """A fixed set schedulable at f_max stays schedulable at any higher cap
    (demands C_i/f shrink, and the feasible polytope is downward closed)."""
    low = AdmissionController(m, _POWER, f_max=f_max)
    high = AdmissionController(m, _POWER, f_max=f_max * 2)
    if low.is_schedulable(tasks):
        assert high.is_schedulable(tasks)


@given(tasks_strategy(max_size=6), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_marginal_energies_telescope(tasks, m):
    ctl = AdmissionController(m, _POWER, f_max=None)
    decisions = ctl.admit_all(tasks)
    total = sum(d.marginal_energy for d in decisions if d.accepted)
    assert np.isclose(total, ctl.current_energy, rtol=1e-9)


@given(
    tasks_strategy(max_size=14),
    cores_strategy,
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(st.booleans(), min_size=14, max_size=14),
)
@settings(max_examples=60, deadline=None)
def test_live_flow_verdicts_match_the_oracle(tasks, m, f_max, resets):
    """Arrival streams with resets interleaved: every verdict (and quote)
    equals the from-scratch flow test's, and ``len`` counts the accepted."""
    ctl = AdmissionController(m, _POWER, f_max=f_max)
    segments = [[]]
    for task, reset in zip(tasks, resets):
        if reset:
            segments.append([])
        segments[-1].append(task)
    for k, segment in enumerate(segments):
        if k:
            ctl.reset()
        decisions = [ctl.try_admit(t, materialize=False) for t in segment]
        got = [(d.accepted, d.marginal_energy) for d in decisions]
        assert got == list(admission_oracle(segment, m, _POWER, f_max))
        assert len(ctl) == sum(a for a, _ in got)
