"""The JSON readers: every input either round-trips or raises ValueError."""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from braidchow.partitions import partitions_of
from braidchow.serialize import (
    schur_table_from_obj,
    schur_table_to_obj,
    series_from_obj,
    series_to_obj,
)
from braidchow.tpoly import TPoly

from .strategies import fractions

# -- malformed records ----------------------------------------------------------------

GOOD_TERM = {"partition": [2], "t": 0, "coeff": "1/2"}


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "terms": [dict(GOOD_TERM, coeff=0.1)]},
        {"n": 2, "terms": [dict(GOOD_TERM, coeff=True)]},
        {"n": 2, "terms": [dict(GOOD_TERM, coeff="1/0")]},
        {"n": 2, "terms": [dict(GOOD_TERM, coeff="0.5")]},
        {"n": 2, "terms": [dict(GOOD_TERM, coeff="1e9")]},
        {"n": 2, "terms": [dict(GOOD_TERM, coeff=None)]},
        {"n": 2, "terms": [{"partition": [2], "t": 0}]},
        {"n": 2, "terms": [dict(GOOD_TERM, partition=[True, True])]},
        {"n": 2, "terms": [dict(GOOD_TERM, partition=2)]},
        {"n": 2, "terms": ["term"]},
        {"n": "2", "terms": []},
        {"n": -1, "terms": []},
        {"n": True, "terms": []},
        {"n": 2},
        {"terms": []},
        {"n": 2, "terms": {"partition": [2]}},
        [],
    ],
    ids=repr,
)
def test_series_from_obj_rejects_malformed_records(obj):
    with pytest.raises(ValueError) as exc:
        series_from_obj(obj)
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if isinstance(terms, list) and terms:
        assert repr(terms[0]) in str(exc.value)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "rows": [{"lambda": [1, 2], "poly": ["1"]}]},
        {"n": 3, "rows": [{"lambda": [5], "poly": ["1"]}]},
        {"n": 3, "rows": [{"lambda": [2], "poly": ["1"]}]},
        {"n": 3, "rows": [{"lambda": [3], "poly": [0.5]}]},
        {"n": 3, "rows": [{"lambda": [3], "poly": ["1/0"]}]},
        {"n": 3, "rows": [{"lambda": [3], "poly": "1"}]},
        {"n": 3, "rows": [{"lambda": [3]}]},
        {"n": 3, "rows": [{"lambda": [3], "poly": ["1"]}, {"lambda": [3], "poly": ["2"]}]},
        {"n": 3.0, "rows": []},
        {"n": 3, "rows": None},
        {"rows": []},
        "table",
    ],
    ids=repr,
)
def test_schur_table_from_obj_rejects_malformed_records(obj):
    with pytest.raises(ValueError) as exc:
        schur_table_from_obj(obj)
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if isinstance(rows, list) and rows:
        assert repr(rows[-1]) in str(exc.value)


def test_readers_take_ints_and_rational_strings():
    obj = {"n": 3, "terms": [{"partition": [2, 1], "t": 1, "coeff": c} for c in (3, "-1/2")]}
    assert series_from_obj(obj).terms == {((2, 1), 1): Fraction(5, 2)}
    table = {"n": 3, "rows": [{"lambda": [2, 1], "poly": [0, "2/4"]}, {"lambda": [3], "poly": ["0"]}]}
    assert schur_table_from_obj(table) == {(2, 1): TPoly((0, Fraction(1, 2)))}


# -- fuzzing ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
exact_coeffs = st.integers(-6, 6) | fractions().map(str)
junk_coeffs = json_values | st.sampled_from(["1/0", "0.5", "1e3", " 1", "+1", "1/-2", "½"])
junk_partitions = st.lists(st.integers(-1, 4) | st.booleans(), max_size=3) | json_values
junk_ints = st.integers(-2, -1) | st.booleans() | st.floats() | st.text(max_size=2) | st.none()


def mostly(valid, junk):
    """Draws from valid eleven times in twelve, from junk otherwise."""
    return st.integers(0, 11).flatmap(lambda i: junk if i == 0 else valid)


def records(fields):
    """JSON objects with these fields, each mostly valid; now and then a
    field is missing or the whole object is some other JSON value."""
    return mostly(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields) | json_values)


def series_objs(n):
    sizes = [list(lam) for k in range(n + 1) for lam in partitions_of(k)]
    term = records(
        {
            "partition": mostly(st.sampled_from(sizes), junk_partitions),
            "t": mostly(st.integers(0, 3), junk_ints),
            "coeff": mostly(exact_coeffs, junk_coeffs),
        }
    )
    terms = mostly(st.lists(term, min_size=1, max_size=4), json_values)
    return records({"n": mostly(st.just(n), junk_ints), "terms": terms})


def table_objs(n):
    row = records(
        {
            "lambda": mostly(st.sampled_from([list(lam) for lam in partitions_of(n)]), junk_partitions),
            "poly": mostly(st.lists(mostly(exact_coeffs, junk_coeffs), max_size=3), json_values),
        }
    )
    rows = mostly(st.lists(row, min_size=1, max_size=3), json_values)
    return records({"n": mostly(st.just(n), junk_ints), "rows": rows})


def read_or_reject(read, obj):
    try:
        return read(obj)
    except ValueError:
        return None


@settings(max_examples=200)
@given(st.integers(0, 5).flatmap(series_objs))
def test_series_from_obj_round_trips_or_raises_value_error(obj):
    s = read_or_reject(series_from_obj, obj)
    if s is not None:
        written = json.loads(json.dumps(series_to_obj(s.n_max, s)))
        assert series_from_obj(written) == s


@settings(max_examples=200)
@given(st.integers(0, 5).flatmap(table_objs))
def test_schur_table_from_obj_round_trips_or_raises_value_error(obj):
    table = read_or_reject(schur_table_from_obj, obj)
    if table is not None:
        written = json.loads(json.dumps(schur_table_to_obj(obj["n"], table)))
        assert schur_table_from_obj(written) == table
