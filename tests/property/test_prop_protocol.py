"""Property tests: request task rows and the plan key against their references.

:func:`repro.service.protocol.parse_task_rows` reads a request's ``tasks``
field into validated rows without building a ``Task``; it must accept and
reject exactly what :func:`tests.oracles.parse_tasks_field` (a ``TaskSet``
of ``Task`` objects) does, with the same error text.  The plan key hashes
the rows' float64 bits; it must identify task sets exactly as
:func:`tests.oracles.plan_key_reference` (sorted ``repr`` strings) does,
except that rows tying as floats but differing in the sign of a zero may
get two keys (a miss, never a shared wrong entry).
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import PolynomialPower
from repro.service.protocol import (
    ScheduleRequest,
    TaskRow,
    canonical_plan_key,
    parse_task_rows,
)
from tests.oracles import parse_tasks_field, plan_key_reference

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
            math.inf, -math.inf, math.nan, 2**1100]
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
_json = st.recursive(
    _json_scalar,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=3), kids, max_size=3),
    ),
    max_leaves=5,
)
#: anything a client may send for one number of a row
_number = st.one_of(
    st.integers(min_value=-5, max_value=50),
    st.floats(),
    st.sampled_from(_SPECIAL),
    st.booleans(),
    st.sampled_from(["1", "2.5", " 3 ", "1e3", "nan", "-inf", "-0", "0x10",
                     "1_0", "", "abc"]),
    st.none(),
    _json,
)


@st.composite
def _spelled(draw, value: float):
    """``value`` as a client may spell it: float, int, numeric string, bool."""
    options = [value, str(value)]
    if value.is_integer():
        options.append(int(value))
    if value in (0.0, 1.0):
        options.append(bool(value))
    return draw(st.sampled_from(options))


@st.composite
def _numbers(draw, valid: bool):
    """A row's three numbers: a task's when ``valid``, else anything."""
    if valid:
        release = draw(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e300]))
        window = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-300]))
        work = draw(st.sampled_from([1.0, 0.25, 5e-324, 7.0]))
        return [draw(_spelled(v)) for v in (release, release + window, work)]
    return [draw(_number) for _ in range(3)]


@st.composite
def _row(draw, well_formed: bool):
    """One row: a well-formed one (a list of 3-4 or a dict with the three
    fields, every number a task's), or a row of any shape and content."""
    numbers = draw(_numbers(well_formed or draw(st.booleans())))
    name = draw(st.one_of(st.just("n"), _json))
    if well_formed:
        if draw(st.booleans()):
            return numbers + [name][: draw(st.integers(min_value=0, max_value=1))]
        row = dict(zip(("release", "deadline", "work"), numbers))
        if draw(st.booleans()):
            row["name"] = name
        return row
    kind = draw(st.sampled_from(["list", "list", "dict", "other"]))
    if kind == "other":
        return draw(_json)
    if kind == "list":
        length = draw(st.integers(min_value=2, max_value=5))
        return (numbers + [name, draw(_json)])[:length]
    row = {}
    for key, value in zip(("release", "deadline", "work", "name"), numbers + [name]):
        if draw(st.integers(min_value=0, max_value=5)):  # mostly present
            row[key] = value
    if draw(st.booleans()):
        row[draw(st.text(max_size=3))] = draw(_json)
    return row


@st.composite
def _tasks_field(draw):
    kind = draw(st.sampled_from(["rows", "rows", "rows", "envelope", "other"]))
    if kind == "other":
        return draw(_json)
    rows = draw(st.lists(_row(draw(st.booleans())), max_size=5))
    if kind == "rows":
        return rows
    return {
        "format": draw(st.sampled_from(["repro-taskset", "repro-taskset", "x"])),
        "version": draw(st.sampled_from([1, 1, 2])),
        "tasks": rows if draw(st.integers(min_value=0, max_value=3)) else draw(_json),
    }


def _outcome(parse, field):
    """What ``parse`` makes of ``field``: its rows (exact bits), or its error."""
    try:
        tasks = parse(field)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return [
        (repr(t.release), repr(t.deadline), repr(t.work), t.name) for t in tasks
    ]


@settings(max_examples=400, deadline=None)
@given(_tasks_field())
def test_row_parser_matches_the_task_parser(field):
    assert _outcome(parse_task_rows, field) == _outcome(parse_tasks_field, field)


# -- the plan key ---------------------------------------------------------------------

_POWER = PolynomialPower(alpha=3.0, static=0.1)
#: few distinct values, so that rows and whole sets often coincide
_grid_row = st.builds(
    TaskRow,
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([2.0, 3.0]),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from(["", "a"]),
)
_grid_rows = st.lists(_grid_row, min_size=1, max_size=4)


def _zero_sign_tie(rows) -> bool:
    """Two rows equal as floats whose bits differ (a ``±0.0`` pair)."""
    bits = {row: set() for row in rows}
    for row in rows:
        bits[row].add(struct.pack("<3d", *row[:3]))
    return any(len(b) > 1 for b in bits.values())


def _key(rows, m=4, power=_POWER, method="subinterval-der") -> str:
    return canonical_plan_key(rows, m, power, method)


@settings(max_examples=200, deadline=None)
@given(_grid_rows, st.randoms(use_true_random=False))
def test_key_is_invariant_under_permutation(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    if not _zero_sign_tie(rows):
        assert _key(shuffled) == _key(rows)
    # the request's own key hashes the rows its job solves, as sorted
    body = {"tasks": [list(r) for r in shuffled], "m": 4, "alpha": 3.0,
            "static": 0.1}
    req = ScheduleRequest.from_body(body)
    assert req.plan_key() == _key(req.tasks)
    assert req.tasks == sorted(shuffled)


#: a platform and solver, from few values so that two draws often coincide
_grid_platform = st.tuples(
    st.sampled_from([1, 4]),
    st.sampled_from([0.1, 0.0, -0.0]).map(
        lambda static: PolynomialPower(alpha=3.0, static=static)
    ),
    st.sampled_from(["subinterval-der", "subinterval-even"]),
)


@settings(max_examples=300, deadline=None)
@given(_grid_rows, _grid_platform, _grid_rows, _grid_platform)
def test_keys_agree_with_the_reference(a, on_a, b, on_b):
    same = _key(a, *on_a) == _key(b, *on_b)
    reference = plan_key_reference(a, *on_a) == plan_key_reference(b, *on_b)
    if same:
        assert reference
    elif reference:
        # only a ±0 tie keeps two keys for one set
        assert _zero_sign_tie(a) or _zero_sign_tie(b)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(TaskRow, st.floats(0, 10), st.floats(11, 20),
                  st.floats(min_value=1e-3, max_value=5), st.text(max_size=3)),
        min_size=1, max_size=4,
    ),
    st.data(),
)
def test_each_field_separates_keys(rows, data):
    base = _key(rows)
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    field = data.draw(st.integers(min_value=0, max_value=2))
    value = rows[i][field]
    bumped = math.nextafter(value, math.inf) if value else -value
    changed = list(rows)
    changed[i] = rows[i]._replace(**{rows[i]._fields[field]: bumped})
    assert _key(changed) != base
    renamed = list(rows)
    renamed[i] = rows[i]._replace(name=rows[i].name + "x")
    assert _key(renamed) != base
    assert _key(rows, m=5) != base
    assert _key(rows, method="subinterval-even") != base
    for knob in ({"alpha": 2.5}, {"static": 0.2}, {"gamma": 2.0}):
        power = PolynomialPower(**{"alpha": 3.0, "static": 0.1, **knob})
        assert _key(rows, power=power) != base


def test_names_split_differently_separate_keys():
    ab = [TaskRow(0.0, 1.0, 1.0, "a"), TaskRow(0.0, 1.0, 1.0, "bc")]
    abc = [TaskRow(0.0, 1.0, 1.0, "ab"), TaskRow(0.0, 1.0, 1.0, "c")]
    assert _key(ab) != _key(abc)


def test_light_requests_key_apart():
    body = {"tasks": [[0.0, 2.0, 1.0]], "m": 4, "alpha": 3.0, "static": 0.1}
    full = ScheduleRequest.from_body(body).plan_key()
    light = ScheduleRequest.from_body({**body, "include_schedule": False}).plan_key()
    assert light == full + ":light"
