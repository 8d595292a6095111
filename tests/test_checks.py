"""The registered checks signal failure with CheckFailed, never ``assert``,
so a broken program fails ``verify`` also under ``python -O``.  The JSON
readers that the serialization round-trip check runs take every input to a
series or table that round-trips, or raise ValueError."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from braidchow import checks, numeric, symseries
from braidchow.checks import schur_table_from_obj, series_from_obj
from braidchow.partitions import partitions_of
from braidchow.pointcounts import m_series
from braidchow.serialize import schur_table_to_obj, series_to_obj
from braidchow.solver import solve_B
from braidchow.tpoly import TPoly

from .strategies import fractions

SRC = Path(__file__).resolve().parents[1] / "src"

# negate the signed Stirling numbers, run every check at --max-n 4, and print
# the interpreter's optimization level and the names of the failed checks;
# the Stirling route reads the numbers from the same module, so the checks
# that compare it with the other routes fail too
NEGATED_STIRLING_RUN = """
import json, sys
from braidchow import checks, numeric
original = numeric.stirling_first_signed
numeric.stirling_first_signed = lambda n, k: -original(n, k)
results = checks.run_all(4, report=lambda line: None)
failed = sorted(name for name, message in results if message is not None)
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""


@pytest.mark.parametrize("flags, optimize", [([], 0), (["-O"], 1)], ids=["plain", "-O"])
def test_broken_stirling_numbers_fail_under_every_optimization_level(flags, optimize):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NEGATED_STIRLING_RUN],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": optimize,
        "failed": [
            "euler characteristics",
            "numeric route agreement",
            "stirling triangle inversion",
            "stirling-bell identity",
            "strata oracle",
            "structural properties",
        ],
    }


def test_check_raises_check_failed_with_the_failing_case(monkeypatch):
    original = numeric.stirling_first_signed
    monkeypatch.setattr(numeric, "stirling_first_signed", lambda n, k: -original(n, k))
    with pytest.raises(checks.CheckFailed, match=r"triangle inversion fails at \(0, 0\)"):
        dict(checks.CHECKS)["stirling triangle inversion"](4)


def test_a_negative_character_value_fails_the_structural_check(monkeypatch):
    # chi^(3)(1^3) made -100: the trivial row's coefficient 1 + t turns the
    # character sum at mu = (1, 1, 1) negative
    original = checks.character_table

    def broken(n):
        chars = dict(original(n))
        if n == 3:
            chars[(3,), (1, 1, 1)] = -100
        return chars

    monkeypatch.setattr(checks, "character_table", broken)
    with pytest.raises(
        checks.CheckFailed,
        match=r"^character value at mu=\(1, 1, 1\), n=3 is not nonnegative integral$",
    ):
        dict(checks.CHECKS)["structural properties"](4, 4)


def test_run_all_reports_each_check_failed_message(monkeypatch):
    def broken(n_max):
        raise checks.CheckFailed(f"broken at {n_max}")

    monkeypatch.setattr(checks, "CHECKS", [("broken", broken)])
    monkeypatch.setitem(checks.VERIFY_BOUNDS, "broken", ((None, 3),))
    lines = []
    assert checks.run_all(8, report=lines.append) == [("broken", "broken at 3")]
    assert lines == ["FAIL broken: broken at 3"]


def test_series_checks_build_no_fraction_term_view(monkeypatch):
    """The level filtration and the functional equation add, subtract,
    divide and compare series in integer form only: with the builder of the
    Fraction view of a series made to raise, both checks still pass."""

    def no_terms(*args):
        raise AssertionError("the Fraction terms of a series were built")

    monkeypatch.setattr(symseries, "_fractions", no_terms)
    checks.check_level_filtration(8)
    checks.check_functional_equation(8)


# -- JSON reader round trips ----------------------------------------------------------


def test_series_json_roundtrip():
    B = solve_B(m_series(5))
    for n in range(2, 6):
        comp = B.component(n)
        obj = series_to_obj(n, comp)
        assert series_from_obj(obj, comp.n_max) == comp
        assert json.loads(json.dumps(obj)) == obj


def test_schur_table_roundtrip():
    table = {(4,): TPoly((1, 3, 1)), (3, 1): TPoly((0, 1)), (2, 2): TPoly((0, 1))}
    obj = schur_table_to_obj(4, table)
    assert [row["lambda"] for row in obj["rows"]] == [[4], [3, 1], [2, 2]]
    assert schur_table_from_obj(obj) == table


@pytest.mark.parametrize("partition", [[1, 2], [3], [2, 1], [2, 0], [-1, 3]], ids=str)
def test_series_from_obj_rejects_bad_partitions(partition):
    term = {"partition": partition, "t": 0, "coeff": "1"}
    with pytest.raises(ValueError, match="term") as exc:
        series_from_obj({"n": 2, "terms": [term]})
    assert repr(term) in str(exc.value)


@pytest.mark.parametrize("t", [1.5, "1", True, -1], ids=repr)
def test_series_from_obj_rejects_bad_t(t):
    term = {"partition": [2], "t": t, "coeff": "1"}
    with pytest.raises(ValueError, match="term") as exc:
        series_from_obj({"n": 2, "terms": [term]})
    assert repr(term) in str(exc.value)


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
