"""Property tests: the columnar schedule against per-segment references.

A :class:`Schedule` holds its segments as columns.  These properties pin
it to the per-segment code it replaced: both constructors agree with
Python's stable sort and with per-segment energy loops bit for bit and
raise the same errors; the compact JSON writer matches ``json.dumps`` of
per-segment dicts byte for byte; and the column validator returns the
per-segment validator's list, on valid and on deliberately broken
schedules.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Schedule, Segment, SubintervalScheduler, Task, TaskSet
from repro.io.schedio import schedule_from_json, schedule_to_dict, schedule_to_json
from repro.power import DiscreteFrequencySet, PolynomialPower
from repro.service.protocol import EncodedResult
from repro.sim.validate import validate_schedule
from tests.oracles import schedule_json_reference, validate_segments

from .strategies import cores_strategy, power_strategy, tasks_strategy

#: values that stress float formatting and ordering: signed zeros,
#: negative times, huge and subnormal magnitudes
_SPECIAL = [-0.0, 0.0, -1.5, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308]
_time = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-20, 20).map(lambda k: k * 0.5),
)
_frequency = st.one_of(
    st.sampled_from([5e-324, 1e300, 0.5, 1.0]),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)
_name = st.text(alphabet=st.sampled_from("aZ_-é任務Ω😀\"\\"), max_size=5)


@st.composite
def _segments(draw, n_tasks: int, n_cores: int, max_size: int = 12):
    """Valid segments; starts may be ``-inf`` and ends ``inf``."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        start = draw(st.one_of(_time, st.just(-np.inf)))
        if start == -np.inf:
            end = draw(_time)
        else:
            end = draw(
                st.floats(min_value=start, exclude_min=True, allow_nan=False).filter(
                    lambda e: e > start  # the float after -0.0 is 0.0
                )
            )
        out.append(
            Segment(
                draw(st.integers(0, n_tasks - 1)),
                draw(st.integers(0, n_cores - 1)),
                start,
                end,
                draw(_frequency),
            )
        )
    return out


@st.composite
def _discrete_power(draw) -> DiscreteFrequencySet:
    freqs = sorted(draw(st.sets(_frequency, min_size=1, max_size=4)))
    powers = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=len(freqs),
            max_size=len(freqs),
        )
    )
    fit = draw(st.one_of(st.none(), power_strategy()))
    return DiscreteFrequencySet(
        np.array(freqs), np.array(powers), fit, draw(st.booleans())
    )


@st.composite
def _schedules(draw) -> Schedule:
    n = draw(st.integers(1, 4))
    tasks = TaskSet(
        Task(float(i), float(i) + 10.0, 1.0, draw(_name)) for i in range(n)
    )
    m = draw(cores_strategy)
    power = draw(st.one_of(power_strategy(), _discrete_power()))
    return Schedule(tasks, m, power, draw(_segments(n, m)))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(_schedules())
def test_compact_writer_matches_per_segment_dicts(schedule):
    text = schedule_to_json(schedule, indent=None)
    assert text == schedule_json_reference(schedule)
    assert text == json.dumps(schedule_to_dict(schedule))
    result = {"kind": "S^F2", "energy": 1.5, "solver": "subinterval-der"}
    encoded = EncodedResult.of(result, schedule)
    doc = {**result, "schedule": schedule_to_dict(schedule)}
    assert encoded.data == json.dumps(doc).encode()


@settings(max_examples=60, deadline=None)
@given(_schedules())
def test_documents_round_trip_to_the_same_columns(schedule):
    back = schedule_from_json(schedule_to_json(schedule, indent=None))
    for col in ("task", "core", "start", "end", "frequency"):
        assert getattr(back, col).tobytes() == getattr(schedule, col).tobytes()
    power, restored = schedule.power, back.power
    if isinstance(power, DiscreteFrequencySet):
        assert restored.frequencies.tobytes() == power.frequencies.tobytes()
        assert restored.powers.tobytes() == power.powers.tobytes()
        assert restored.continuous_fit == power.continuous_fit
        assert restored.strict == power.strict
    else:
        assert restored == power


def test_empty_schedule_document():
    tasks = TaskSet([Task(0.0, 1.0, 1.0, "ünïcode")])
    schedule = Schedule(tasks, 2, PolynomialPower(), [])
    assert schedule_to_json(schedule, indent=None) == schedule_json_reference(schedule)
    assert '"segments": []' in schedule_to_json(schedule, indent=None)


def _reference_energies(segments, power, n_tasks):
    """The per-segment energy and work loops over schedule-ordered segments."""
    f = np.array([s.frequency for s in segments])
    d = np.array([s.duration for s in segments])
    total = float(np.sum(np.asarray(power.power(f)) * d)) if segments else 0.0
    breakdown, work = np.zeros(n_tasks), np.zeros(n_tasks)
    for s in segments:
        breakdown[s.task_id] += float(np.asarray(power.power(s.frequency))) * s.duration
        work[s.task_id] += s.work
    return total, breakdown, work


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_both_constructors_agree_with_the_segment_loops(data):
    n = data.draw(st.integers(1, 4))
    tasks = TaskSet(Task(0.0, 10.0, 1.0) for _ in range(n))
    m = data.draw(cores_strategy)
    power = data.draw(power_strategy())
    segments = data.draw(st.permutations(data.draw(_segments(n, m))))
    cols = [
        [s.task_id for s in segments],
        [s.core for s in segments],
        [s.start for s in segments],
        [s.end for s in segments],
        [s.frequency for s in segments],
    ]
    a = Schedule(tasks, m, power, segments)
    b = Schedule.from_columns(tasks, m, power, *cols)
    ordered = sorted(segments, key=lambda s: (s.start, s.core, s.task_id))
    assert list(a) == list(b) == ordered
    with np.errstate(all="ignore"):  # huge values overflow alike on both sides
        total, breakdown, work = _reference_energies(ordered, power, n)
        for s in (a, b):
            assert _bits(s.total_energy()) == _bits(total)
            assert _bits(s.energy_breakdown()) == _bits(breakdown)
            assert _bits(s.work_completed()) == _bits(work)


_bad_int = st.integers(-2, 6)
_bad_time = st.sampled_from([-1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])
_bad_frequency = st.sampled_from([-1.0, 0.0, 0.5, np.nan])


def _error(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_bad_int, _bad_int, _bad_time, _bad_time, _bad_frequency),
        max_size=6,
    ),
    st.integers(0, 3),
)
def test_both_constructors_raise_the_same_errors(rows, m):
    tasks = TaskSet([Task(0.0, 10.0, 1.0), Task(0.0, 10.0, 1.0)])
    power = PolynomialPower()
    cols = [list(c) for c in zip(*rows)] or [[]] * 5
    by_segments = _error(
        lambda: Schedule(tasks, m, power, [Segment(*row) for row in rows])
    )
    by_columns = _error(lambda: Schedule.from_columns(tasks, m, power, *cols))
    assert by_columns == by_segments


@st.composite
def _broken_schedules(draw) -> Schedule:
    """A solved schedule with a few segments moved, retargeted, resized,
    dropped or duplicated."""
    tasks = draw(tasks_strategy(max_size=6))
    m = draw(st.integers(1, 4))
    schedule = SubintervalScheduler(tasks, m, PolynomialPower(3.0, 0.1)).final(
        "der"
    ).schedule
    task, core, start, end, freq = (
        getattr(schedule, c).copy()
        for c in ("task", "core", "start", "end", "frequency")
    )
    for _ in range(draw(st.integers(0, 4))):
        if not task.size:
            break
        i = draw(st.integers(0, task.size - 1))
        op = draw(st.sampled_from(["shift", "core", "task", "freq", "drop", "dup"]))
        if op == "shift":
            dt = draw(st.sampled_from([-3.0, -0.5, 1e-10, 0.5, 3.0]))
            start[i] += dt
            end[i] += dt
        elif op == "core":
            core[i] = draw(st.integers(0, m - 1))
        elif op == "task":
            task[i] = draw(st.integers(0, len(tasks) - 1))
        elif op == "freq":
            freq[i] *= draw(st.sampled_from([0.5, 1.0 + 1e-12, 2.0]))
        elif op == "drop":
            keep = np.arange(task.size) != i
            task, core, start, end, freq = (
                c[keep] for c in (task, core, start, end, freq)
            )
        else:
            task, start, end, freq = (
                np.append(c, c[i]) for c in (task, start, end, freq)
            )
            core = np.append(core, draw(st.integers(0, m - 1)))
    return Schedule.from_columns(
        tasks, m, schedule.power, task, core, start, end, freq
    )


@settings(max_examples=120, deadline=None)
@given(_broken_schedules(), st.booleans())
def test_column_validator_matches_the_segment_validator(schedule, completion):
    got = validate_schedule(schedule, check_completion=completion)
    assert got == validate_segments(schedule, check_completion=completion)
