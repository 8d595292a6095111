"""The registered checks signal failure with CheckFailed, never ``assert``,
so a broken program fails ``verify`` also under ``python -O``.  The
serialization round-trip check fails on every record its writers could get
wrong: a term or row dropped or written twice, a coefficient not written as
its reduced rational, a wrong n, a field missing or of the wrong JSON type."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from braidchow import characters, checks, numeric, pointcounts, solver, symseries
from braidchow.partitions import partitions_of, z_lambda
from braidchow.pointcounts import m_series
from braidchow.serialize import schur_table_to_obj, series_to_obj
from braidchow.solver import solve_B
from braidchow.symseries import PlethysmCache, SymSeries
from braidchow.tpoly import T, TPoly

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


# -- the fault matrix -------------------------------------------------------------
# Each fault is monkeypatched into one layer; the row pins the exact set of
# checks that `run_all` fails at the stated --max-n.


def leave_t_unscaled(k):
    """psi_k maps t^e p_q to t^e p_kq, not t^(ke) p_kq."""

    def install(monkeypatch):
        original = symseries.psi

        def psi(j, f):
            if j != k:
                return original(j, f)
            return SymSeries(f.n_max, {(tuple(k * p for p in parts), e): c for (parts, e), c in f.terms.items()})

        monkeypatch.setattr(symseries, "psi", psi)

    return install


def bump_m(k, bump):
    """M_k += bump."""

    def install(monkeypatch):
        original = pointcounts.m_component
        monkeypatch.setattr(pointcounts, "m_component", lambda n: original(n) + bump if n == k else original(n))

    return install


def t_e_minus_h(k):
    """t (e_k - h_k) = t (s_(1^k) - s_(k)): -2t p_mu / z_mu for each odd class mu."""
    return SymSeries(k, {(mu, 1): Fraction(-2, z_lambda(mu)) for mu in partitions_of(k) if (k - len(mu)) % 2})


def flip_strips(size):
    """Every border strip of ``size`` the Schur expansion adds has its sign flipped."""

    def install(monkeypatch):
        original = characters._add_strips

        def add_strips(mask, r):
            strips = original(mask, r)
            return tuple((sup, -sign) for sup, sign in strips) if r == size else strips

        monkeypatch.setattr(characters, "_add_strips", add_strips)

    return install


def narrow_fit(monkeypatch):
    """`PlethysmCache.fit` packs one bit narrower than a bound needs:
    halving the bound drops one bit from its bit length."""
    original = PlethysmCache.fit
    monkeypatch.setattr(PlethysmCache, "fit", lambda self, bound: original(self, bound >> 1))


def drop_quotient_row(monkeypatch):
    """`solver._divexact_tminus1` drops its quotient's p_(d) row in each degree d."""
    original = solver._divexact_tminus1

    def divexact(s):
        form = {}
        for d, (den, rows) in original(s)._int.items():
            rows = {parts: row for parts, row in rows.items() if parts != (d,)}
            if rows:
                form[d] = (den, rows)
        return SymSeries._from_int(s.n_max, form)

    monkeypatch.setattr(solver, "_divexact_tminus1", divexact)


# psi_5 leaving t unscaled changes 15 Schur coefficients of B_10 (no longer
# integers); the functional equation reads the same psi, the level
# filtration still sums to B and the numeric routes read only the p_1^n row,
# so only the structural check sees it, and only since it reads Schur
# coefficients past n = 8.  t (e_7 - h_7) is rank-neutral and leaves every
# Schur coefficient and character value nonnegative: only the two
# structural theorems see it (B_7's s_7 coefficient is no palindrome, B_8's
# s_(3,1^5) coefficient is not unimodal).  The narrow width shows only in
# the small plethysms of the spot identities: the solver's caches widen by
# at least 3x at a time, so their width stays above what the bounds need.
FAULTS = {
    "M_7 += t p_7": (bump_m(7, SymSeries.p(7) * T), 8, ["structural properties"]),
    "M_7 += t (e_7 - h_7)": (bump_m(7, t_e_minus_h(7)), 8, ["structural properties"]),
    "M_9 += t p_9": (bump_m(9, SymSeries.p(9) * T), 12, ["structural properties"]),
    "M_12 += t p_12": (bump_m(12, SymSeries.p(12) * T), 12, ["structural properties"]),
    "psi_2 leaves t unscaled": (leave_t_unscaled(2), 8, ["reference table reproduction", "structural properties"]),
    "psi_3 leaves t unscaled": (leave_t_unscaled(3), 8, ["reference table reproduction", "structural properties"]),
    "psi_5 leaves t unscaled": (leave_t_unscaled(5), 12, ["structural properties"]),
    "strips of size 9 flip sign": (flip_strips(9), 12, ["input series integrality", "structural properties"]),
    "fit one bit narrow": (narrow_fit, 8, ["plethysm spot identities"]),
    "divexact drops a row": (
        drop_quotient_row,
        8,
        ["functional equation", "reference table reproduction", "structural properties"],
    ),
}


def clear_series_caches():
    pointcounts.m_series.cache_clear()
    solver.solved_series.cache_clear()  # the checks read the solution through this cache


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_fails_exactly_its_checks(monkeypatch, fault):
    install, max_n, failing = FAULTS[fault]
    install(monkeypatch)
    clear_series_caches()
    try:
        results = checks.run_all(max_n, report=lambda line: None)
    finally:
        monkeypatch.undo()
        clear_series_caches()
    assert [name for name, message in results if message is not None] == failing


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
        dict(checks.CHECKS)["structural properties"](4)


# B_n's Schur coefficients perturbed, each still a nonnegative integer
# polynomial, with every character value still nonnegative: t (e_7 - h_7)
# takes t from the s_7 coefficient 1 + 13t + 50t^2 + 50t^3 + 13t^4 + t^5, and
# 20 (t + t^3) h_6 turns the s_6 coefficient into 1 + 29t + 19t^2 + 29t^3 + t^4
THEOREM_BREAKS = {
    "no palindrome": (t_e_minus_h(7), r"^Schur coefficient of \(7,\) at n=7 is not palindromic in degree 5$"),
    "not unimodal": (SymSeries.h(6) * TPoly((0, 20, 0, 20)), r"^Schur coefficient of \(6,\) at n=6 is not unimodal$"),
}


@pytest.mark.parametrize("theorem_break", THEOREM_BREAKS)
def test_a_schur_coefficient_breaking_duality_or_lefschetz_fails_the_structural_check(
    monkeypatch, theorem_break
):
    bump, message = THEOREM_BREAKS[theorem_break]
    original = checks.solved_series
    monkeypatch.setattr(checks, "solved_series", lambda n_max: original(n_max) + bump)
    with pytest.raises(checks.CheckFailed, match=message):
        dict(checks.CHECKS)["structural properties"](bump.n_max)


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


# -- the serialization round-trip --------------------------------------------------


def test_series_json_roundtrip():
    B = solve_B(m_series(5))
    for n in range(2, 6):
        comp = B.component(n)
        obj = series_to_obj(n, comp)
        assert json.loads(json.dumps(obj)) == obj
        terms = {(tuple(r["partition"]), r["t"]): Fraction(r["coeff"]) for r in obj["terms"]}
        assert len(terms) == len(obj["terms"])
        assert SymSeries(comp.n_max, terms) == comp


def test_schur_table_records_follow_the_row_order():
    table = {(2, 2): TPoly((0, 1)), (3, 1): TPoly((0, 1)), (4,): TPoly((1, 3, 1))}
    assert schur_table_to_obj(4, table) == {
        "n": 4,
        "rows": [
            {"lambda": [4], "poly": ["1", "3", "1"]},
            {"lambda": [3, 1], "poly": ["0", "1"]},
            {"lambda": [2, 2], "poly": ["0", "1"]},
        ],
    }


def recode(old, new):
    """Write each coefficient ``old`` of a record as ``new``."""

    def mangle(obj):
        for term in obj.get("terms", []):
            term["coeff"] = new if term["coeff"] == old else term["coeff"]
        for row in obj.get("rows", []):
            row["poly"] = [new if c == old else c for c in row["poly"]]

    return mangle


def first_term(**fields):
    """Set ``fields`` of the first term of a series record."""
    return lambda obj: obj["terms"][0].update(fields)


def first_row(fields):
    """Set ``fields`` of the first row of a Schur table record."""
    return lambda obj: obj["rows"][0].update(fields)


MANGLINGS = {
    "drop a term": ("series_to_obj", lambda obj: obj["terms"].pop()),
    "duplicate a term": ("series_to_obj", lambda obj: obj["terms"].append(obj["terms"][0])),
    "decimal coefficient": ("series_to_obj", recode("1/2", "0.5")),
    "unreduced coefficient": ("series_to_obj", recode("1/2", "2/4")),
    "wrong series n": ("series_to_obj", lambda obj: obj.update(n=obj["n"] + 1)),
    "series n as a float": ("series_to_obj", lambda obj: obj.update(n=float(obj["n"]))),
    "series n as a string": ("series_to_obj", lambda obj: obj.update(n=str(obj["n"]))),
    "no series n": ("series_to_obj", lambda obj: obj.pop("n")),
    "no terms key": ("series_to_obj", lambda obj: obj.pop("terms")),
    "terms not a list": ("series_to_obj", lambda obj: obj.update(terms=obj["terms"][0])),
    "empty terms": ("series_to_obj", lambda obj: obj["terms"].clear()),
    "term not an object": ("series_to_obj", lambda obj: obj["terms"].insert(0, "term")),
    "parts out of order": (
        "series_to_obj",
        lambda obj: [r["partition"].reverse() for r in obj["terms"]],
    ),
    "zero part": ("series_to_obj", first_term(partition=[2, 0])),
    "negative part": ("series_to_obj", first_term(partition=[-1, 3])),
    "bool parts": ("series_to_obj", first_term(partition=[True, True])),
    "partition not a list": ("series_to_obj", first_term(partition=2)),
    "partition of another degree": ("series_to_obj", first_term(partition=[1])),
    "t as a float": ("series_to_obj", first_term(t=0.0)),
    "t as a string": ("series_to_obj", first_term(t="0")),
    "t as a bool": ("series_to_obj", first_term(t=False)),
    "negative t": ("series_to_obj", first_term(t=-1)),
    "shifted t": ("series_to_obj", lambda obj: [r.update(t=r["t"] + 1) for r in obj["terms"]]),
    "float coefficient": ("series_to_obj", recode("1/2", 0.5)),
    "exponent coefficient": ("series_to_obj", recode("1/2", "5e-1")),
    "signed coefficient": ("series_to_obj", recode("1/2", "+1/2")),
    "padded coefficient": ("series_to_obj", recode("1/2", " 1/2")),
    "bool coefficient": ("series_to_obj", first_term(coeff=True)),
    "null coefficient": ("series_to_obj", first_term(coeff=None)),
    "zero denominator": ("series_to_obj", first_term(coeff="1/0")),
    "zero coefficient": ("series_to_obj", first_term(coeff="0")),
    "negated coefficient": ("series_to_obj", recode("1/2", "-1/2")),
    "no coefficient": ("series_to_obj", lambda obj: obj["terms"][0].pop("coeff")),
    # the SymSeries constructor drops a term past n_max, so the check counts degrees
    "term past n_max": (
        "series_to_obj",
        lambda obj: obj["terms"].append({"partition": [7], "t": 0, "coeff": "1"}),
    ),
    "drop a row": ("schur_table_to_obj", lambda obj: obj["rows"].pop()),
    "duplicate a row": ("schur_table_to_obj", lambda obj: obj["rows"].append(obj["rows"][0])),
    "decimal table coefficient": ("schur_table_to_obj", recode("1", "1.0")),
    "unreduced table coefficient": ("schur_table_to_obj", recode("1", "2/2")),
    "wrong table n": ("schur_table_to_obj", lambda obj: obj.update(n=obj["n"] + 1)),
    "table n as a float": ("schur_table_to_obj", lambda obj: obj.update(n=float(obj["n"]))),
    "no rows key": ("schur_table_to_obj", lambda obj: obj.pop("rows")),
    "null rows": ("schur_table_to_obj", lambda obj: obj.update(rows=None)),
    "lambda out of order": (
        "schur_table_to_obj",
        lambda obj: [r["lambda"].reverse() for r in obj["rows"]],
    ),
    "lambda of another size": ("schur_table_to_obj", first_row({"lambda": [5]})),
    "int table coefficient": ("schur_table_to_obj", recode("1", 1)),
    "zero table denominator": ("schur_table_to_obj", recode("1", "1/0")),
    # a string of one-digit coefficients reads back as the same polynomial
    "poly not a list": (
        "schur_table_to_obj",
        lambda obj: [
            r.update(poly="".join(r["poly"])) for r in obj["rows"] if all(len(c) == 1 for c in r["poly"])
        ],
    ),
    "no poly": ("schur_table_to_obj", lambda obj: obj["rows"][0].pop("poly")),
}


@pytest.mark.parametrize("mangling", MANGLINGS)
def test_a_mangled_record_fails_the_serialization_round_trip(monkeypatch, mangling):
    writer, mangle = MANGLINGS[mangling]
    write = getattr(checks, writer)

    def mangled(n, value):
        obj = write(n, value)
        mangle(obj)
        return obj

    monkeypatch.setattr(checks, writer, mangled)
    lines = []
    results = checks.run_all(6, report=lines.append)
    assert [name for name, message in results if message] == ["serialization round-trip"]
    assert any(line.startswith("FAIL serialization round-trip: ") for line in lines)
