"""Acceptance suite: the exit criteria for this artifact, one test per criterion.

Every criterion is exact (integer/rational equality, no tolerances).  The
criteria run the checks of the registry behind ``verify``
(``braidchow.checks.CHECKS``) at pinned bounds, never below those ``verify``
uses, plus the few assertions no check makes.  Each test prints a single
PASS/FAIL line, so ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import random
from fractions import Fraction
from math import factorial

from braidchow import checks
from braidchow.characters import schur_expand
from braidchow.leveltrees import epoly_Bn, level_tree_census
from braidchow.pointcounts import m_series
from braidchow.solver import solved_series, verify_functional_equation
from braidchow.symseries import PlethysmCache, SymSeries, plethysm, rk
from braidchow.tpoly import TPoly


class _Report:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {self.title}: {status}")
        return False


def run_check(name, *bounds):
    """Run the registered check ``name`` at the given bounds."""
    dict(checks.CHECKS)[name](*bounds)


def test_criterion_1_table_reproduction(capsys):
    with capsys.disabled(), _Report(1, "reference table reproduction for n <= 6"):
        run_check("reference table reproduction", 6)
        # spot anchor for the n = 6 row
        assert schur_expand(solved_series(6).component(6), 6)[(4, 2)] == TPoly((0, 9, 28, 9))


def test_criterion_2_functional_equation(capsys):
    with capsys.disabled(), _Report(2, "functional equation through degree 10 + perturbations"):
        run_check("functional equation", 10)
        M10 = m_series(10)
        B10 = solved_series(10)
        for n in range(2, 11):
            bump = SymSeries.h(n, 10) * TPoly((0, 1))
            assert not verify_functional_equation(B10 + bump, M10), n


def test_criterion_3_four_route_agreement(capsys):
    with capsys.disabled(), _Report(3, "route agreement: solver/stirling/bell/lattice + strata"):
        run_check("numeric route agreement", 10, 10)
        run_check("strata oracle", 12)
        assert epoly_Bn(4) == TPoly((1, 8, 1))
        assert epoly_Bn(5) == TPoly((1, 41, 41, 1))


def test_criterion_4_euler_characteristics(capsys):
    with capsys.disabled(), _Report(4, "Euler characteristics match H(1) for n <= 12"):
        run_check("euler characteristics", 12)


def test_criterion_5_input_series_validation(capsys):
    with capsys.disabled(), _Report(5, "input series rank polynomials for n <= 10"):
        run_check("input series rank polynomials", 10)


def test_criterion_6_level_tree_census(capsys):
    with capsys.disabled(), _Report(6, "tree census vs chain counts (n <= 8) + round-trip"):
        run_check("level tree census", 8)
        assert [sum(level_tree_census(n).values()) for n in (2, 3, 4)] == [1, 4, 32]
        run_check("pruning round-trip", 6)


def test_criterion_7_structural_properties(capsys):
    with capsys.disabled(), _Report(7, "structural properties of all outputs"):
        run_check("structural properties", 10)


def test_criterion_8_combinatorial_identities(capsys):
    with capsys.disabled(), _Report(8, "Stirling inversion, Bell identity, t->1 limits"):
        run_check("stirling triangle inversion", 12)
        run_check("stirling-bell identity", 12)
        run_check("bell t->1 limit", 12)


def _random_series(rng, n_max, max_terms, pure_sym):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(1, n_max) if pure_sym else rng.randint(0, n_max)
        lam = ()
        while sum(lam) < size:
            lam = lam + (rng.randint(1, size - sum(lam)),)
        lam = tuple(sorted(lam, reverse=True))
        t_exp = rng.randint(0, 2)
        if pure_sym and not lam:
            continue
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if coeff:
            terms[(lam, t_exp)] = coeff
    return SymSeries(n_max, terms)


def test_criterion_9_plethysm_laws(capsys):
    with capsys.disabled(), _Report(9, "plethysm law suite on seeded random samples"):
        run_check("plethysm spot identities", 6)
        rng = random.Random(20240814)
        checked = 0
        while checked < 12:
            f = _random_series(rng, 8, 3, pure_sym=False)
            g = _random_series(rng, 8, 3, pure_sym=False)
            h = _random_series(rng, 8, 2, pure_sym=True)
            if not h:  # pure_sym: h has no degree-0 part
                continue
            cache = PlethysmCache(h)
            assert plethysm(f + g, h, cache) == plethysm(f, h, cache) + plethysm(g, h, cache)
            assert plethysm(f * g, h, cache) == plethysm(f, h, cache) * plethysm(g, h, cache)
            # rk compatibility: EGF composition oracle
            lhs = rk(plethysm(f, h, cache))
            rhs = _egf_compose(rk(f), rk(h), 8)
            assert lhs == rhs
            checked += 1
        # associativity on smaller truncations (cubic cost)
        checked = 0
        while checked < 6:
            f = _random_series(rng, 6, 2, pure_sym=False)
            g = _random_series(rng, 6, 2, pure_sym=True)
            h = _random_series(rng, 6, 2, pure_sym=True)
            if not g or not h:
                continue
            assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))
            checked += 1


def _egf_compose(f, g, n_max):
    fo = {n: p * Fraction(1, factorial(n)) for n, p in f.items()}
    go = {n: p * Fraction(1, factorial(n)) for n, p in g.items()}
    comp = {}
    power = {0: TPoly.const(1)}
    for k in range(0, n_max + 1):
        coeff = fo.get(k, TPoly())
        if coeff:
            for n, p in power.items():
                comp[n] = comp.get(n, TPoly()) + coeff * p
        new_power = {}
        for n, p in power.items():
            for m, q in go.items():
                if n + m <= n_max:
                    new_power[n + m] = new_power.get(n + m, TPoly()) + p * q
        power = new_power
    return {n: p * factorial(n) for n, p in comp.items() if p}
