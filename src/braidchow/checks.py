"""The registry of checks, shared by ``verify`` and the acceptance tests.

Each check takes its bound (two checks also take a second bound, for their
costliest part) and checks exactly up to it; it raises CheckFailed with a
readable message on failure.  The checks never use ``assert``, so they hold
under ``python -O`` too.  Each check is registered where it is defined, by
``_check``, with its name and its verify-time bounds, which fill ``CHECKS``
and ``VERIFY_BOUNDS``; ``verify`` runs every check at the bounds these derive
from --max-n, and the acceptance tests run them at pinned bounds.  The runner
reports one status line per check and stops nothing, so a single run shows
everything that is broken.  Checks run in the order they are defined; order
matters only cosmetically: the cheapest, most diagnostic checks come first.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from . import combinat
from .characters import character_table, schur_expand
from .combinat import bell_partial, omega, omega_shifted
from .leveltrees import (
    chain_counts_by_length,
    enumerate_level_trees,
    epoly_Bn,
    level_tree_census,
    unprune,
)
from .numeric import euler_chars, hnum_bell, hnum_lattice, hnum_stirling
from .partitions import partitions_of
from .pointcounts import m_series, twisted_count
from .reference import REFERENCE_TABLE
from .serialize import schur_table_from_obj, schur_table_to_obj, series_from_obj, series_to_obj
from .solver import hnum_from_solver, level_filtration, solved_series, verify_functional_equation
from .symseries import SymSeries, plethysm
from .tpoly import TPoly, T_MINUS_ONE


class CheckFailed(Exception):
    """A registered check found the program's output wrong."""


# (name, check) pairs in run order, and check name -> one (floor, cap) pair
# per bound the check takes, both filled by `_check`
CHECKS: list[tuple[str, Callable[..., None]]] = []
VERIFY_BOUNDS: dict[str, tuple[tuple[int | None, int | None], ...]] = {}


def _check(name: str, *bounds: tuple[int | None, int | None]):
    """Register the decorated check under ``name``, to run after those
    defined above it, with its verify-time bounds: --max-n is clamped into
    each (floor, cap) pair, and None leaves that side open."""

    def register(fn: Callable[..., None]) -> Callable[..., None]:
        CHECKS.append((name, fn))
        VERIFY_BOUNDS[name] = bounds
        return fn

    return register


@_check("stirling-bell identity", (None, 12))
def check_stirling_bell_identity(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            if not combinat.stirling_bell_identity_check(n, k):
                raise CheckFailed(f"Stirling-Bell identity fails at (n, k) = ({n}, {k})")


@_check("stirling triangle inversion", (None, 12))
def check_stirling_inversion(n_max: int):
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            total = sum(
                combinat.stirling_first_signed(n, j) * combinat.stirling_second(j, k)
                for j in range(k, n + 1)
            )
            expected = 1 if n == k else 0
            if total != expected:
                raise CheckFailed(f"triangle inversion fails at ({n}, {k}): {total}")


@_check("bell t->1 limit", (None, 12))
def check_bell_limit(n_max: int):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            poly = bell_partial(n, k, [omega_shifted(i) for i in range(1, n - k + 2)])
            value = poly.divexact(T_MINUS_ONE).eval(1)
            expected = Fraction(
                factorial(n) * (-1) ** (n - k - 1) * factorial(n - k - 1),
                factorial(k - 1) * factorial(n - k + 1),
            )
            if value != expected:
                raise CheckFailed(f"Bell limit at t=1 fails at ({n}, {k}): {value}")


@_check("omega closed form", (None, None))
def check_omega_closed_form(n_max: int):
    for n in range(1, n_max + 1):
        closed = TPoly.const(1)
        for i in range(n - 1):
            closed = closed * TPoly((-i, 1))
        if omega(n) != closed:
            raise CheckFailed(f"omega({n}) differs from its closed form")


@_check("plethysm spot identities", (6, 6))
def check_plethysm_spots(ab_max: int):
    for a in range(1, ab_max + 1):
        for b in range(1, ab_max + 1):
            lhs = plethysm(SymSeries.p(a, a * b), SymSeries.p(b, a * b))
            if lhs != SymSeries.p(a * b):
                raise CheckFailed(f"p_{a} o p_{b} != p_{a*b}")
    h2 = SymSeries.h(2, 4)
    expected = SymSeries(
        4,
        {
            ((1, 1, 1, 1), 0): Fraction(1, 8),
            ((2, 1, 1), 0): Fraction(2, 8),
            ((2, 2), 0): Fraction(3, 8),
            ((4,), 0): Fraction(2, 8),
        },
    )
    if plethysm(h2, h2) != expected:
        raise CheckFailed("h_2 o h_2 has the wrong expansion")


@_check("twisted counts are counts", (None, 8))
def check_twisted_counts(n_max: int):
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            poly = twisted_count(lam)
            for q in (2, 3, 4, 5):
                v = poly.eval(q)
                if v != int(v) or v < 0:
                    raise CheckFailed(f"twisted count {lam} at q={q}: {v}")


@_check("input series rank polynomials", (None, None))
def check_input_rank_polys(n_max: int):
    M = m_series(n_max)
    for n in range(2, n_max + 1):
        got = M.component(n).p_coefficient((1,) * n) * factorial(n)
        expected = TPoly.const(1)
        for j in range(2, n):
            expected = expected * TPoly((-j, 1))
        if got != expected:
            raise CheckFailed(f"input component {n} differs from prod_(j=2..{n - 1}) (t - j)")
        if omega_shifted(n).divexact(T_MINUS_ONE) != expected:
            raise CheckFailed(
                f"omega_{n}(t - 1)/(t - 1) differs from prod_(j=2..{n - 1}) (t - j)"
            )


@_check("input series integrality", (None, 8))
def check_input_integrality(n_max: int):
    M = m_series(n_max)
    for n in range(2, n_max + 1):
        table = schur_expand(M.component(n), n)
        for lam, poly in table.items():
            if not poly.has_integer_coeffs():
                raise CheckFailed(f"component {n}: s_{lam} coefficient not integral")
            if poly[n - 2] != (1 if lam == (n,) else 0):
                raise CheckFailed(f"component {n}: top t-weight is not the trivial representation")


@_check("functional equation", (None, None))
def check_functional_equation(n_max: int):
    B = solved_series(n_max)
    if not verify_functional_equation(B, m_series(n_max)):
        raise CheckFailed("functional equation residual is nonzero")
    if B.component(2) != SymSeries.h(2, n_max):
        raise CheckFailed("degree-2 component is not h_2")


@_check("reference table reproduction", (None, 6))  # the reference table stops at n = 6
def check_reference_table(n_max: int):
    B = solved_series(n_max)
    for n in range(2, n_max + 1):
        got = schur_expand(B.component(n), n)
        want = {lam: TPoly(cs) for lam, cs in REFERENCE_TABLE[n].items()}
        if got != want:
            raise CheckFailed(f"table row {n} deviates from the reference values")


# the second bound is the lattice route's, which walks set partitions:
# capped where that gets slow
@_check("numeric route agreement", (None, None), (None, 10))
def check_numeric_routes(n_max: int, lattice_max: int):
    routes = {
        "solver": hnum_from_solver(solved_series(n_max)),
        "stirling": hnum_stirling(n_max),
        "bell": hnum_bell(n_max),
        "lattice": hnum_lattice(lattice_max),
    }
    for n in range(1, n_max + 1):
        # a route that should reach degree n but has no value there shows as None
        values = {
            name: h.get(n) for name, h in routes.items() if name != "lattice" or n <= lattice_max
        }
        distinct = {p if p is None else tuple(p.coeffs) for p in values.values()}
        if len(distinct) != 1:
            raise CheckFailed(f"numeric routes disagree at n={n}: {values}")


@_check("euler characteristics", (5, None))  # the spot values of chi need n >= 5
def check_euler_characteristics(n_max: int):
    chi = euler_chars(n_max)
    hnum = hnum_stirling(n_max)
    for n in range(1, n_max + 1):
        if chi[n] != hnum[n].eval(1):
            raise CheckFailed(f"chi_{n} != H_{n}(1)")
    if [chi[n] for n in range(2, 6)] != [1, 2, 10, 84]:
        raise CheckFailed("spot values of chi deviate")


@_check("structural properties", (None, None), (None, 8))  # then the Schur expansion
def check_structural(n_max: int, schur_max: int):
    hnum = hnum_stirling(n_max)
    for n in range(2, n_max + 1):
        p = hnum[n]
        if p.degree != n - 2:
            raise CheckFailed(f"H_{n} has degree {p.degree}")
        if not p.is_monic():
            raise CheckFailed(f"H_{n} is not monic")
        if not p.is_palindromic():
            raise CheckFailed(f"H_{n} is not palindromic")
        if not p.is_unimodal():
            raise CheckFailed(f"H_{n} is not unimodal")
    B = solved_series(schur_max)
    for n in range(2, schur_max + 1):
        table = schur_expand(B.component(n), n)
        for lam, poly in table.items():
            if not (poly.has_integer_coeffs() and all(c >= 0 for c in poly.coeffs)):
                raise CheckFailed(
                    f"Schur coefficient of {lam} at n={n} is not a nonnegative integer polynomial"
                )
        chars = character_table(n)
        for mu in partitions_of(n):
            value = TPoly()
            for lam, poly in table.items():
                value = value + poly * chars[lam, mu]
            if not (value.has_integer_coeffs() and all(c >= 0 for c in value.coeffs)):
                raise CheckFailed(f"character value at mu={mu}, n={n} is not nonnegative integral")


@_check("level filtration", (None, None))
def check_level_filtration(n_max: int):
    M = m_series(n_max)
    layers = level_filtration(M)
    if layers[0] != M:
        raise CheckFailed("first filtration layer differs from input")
    if sum(layers[1:], layers[0]) != solved_series(n_max):
        raise CheckFailed("filtration layers do not sum to the solution")
    for idx, layer in enumerate(layers):
        k = idx + 1
        for n in range(2, n_max + 1):
            if k > n - 1:
                if layer.component(n):
                    raise CheckFailed(f"layer {k} has a degree-{n} part")


@_check("level tree census", (None, 6))  # walks the set-partition lattice: capped where slow
def check_tree_census(n_max: int):
    for n in range(2, n_max + 1):
        census = level_tree_census(n)
        chains = chain_counts_by_length(n)
        got = {length - 1: c for length, c in census.items()}
        if got != chains:
            raise CheckFailed(f"census at n={n} deviates from chain counts: {census}")


@_check("strata oracle", (None, None))  # counts trees without walking them, so uncapped
def check_strata_oracle(n_max: int):
    hnum = hnum_stirling(n_max)
    for n in range(2, n_max + 1):
        if epoly_Bn(n) != hnum[n]:
            raise CheckFailed(f"stratum sum at n={n} deviates")


@_check("pruning round-trip", (None, 5))  # walks trees: capped where that gets slow
def check_pruning_roundtrip(n_max: int):
    for n in range(3, n_max + 1):
        for tree in enumerate_level_trees(n):
            if tree.length == 1:
                continue
            pruned, assignment = tree.prune()
            if unprune(pruned, assignment) != tree:
                raise CheckFailed("pruning round-trip failed")


@_check("serialization round-trip", (None, 6))
def check_serialization_roundtrip(n_max: int):
    B = solved_series(n_max)
    for n, comp in B.components.items():
        if series_from_obj(series_to_obj(n, comp), comp.n_max) != comp:
            raise CheckFailed(f"series component {n} does not survive a JSON round-trip")
        table = schur_expand(comp, n)
        if schur_table_from_obj(schur_table_to_obj(n, table)) != table:
            raise CheckFailed(f"Schur table {n} does not survive a JSON round-trip")


def _clamp(max_n: int, floor: int | None, cap: int | None) -> int:
    n = max_n if cap is None else min(max_n, cap)
    return n if floor is None else max(n, floor)


def run_all(max_n: int, report=print) -> list[tuple[str, str | None]]:
    """Run every check at its verify-time bounds; returns (name, failure
    message or None) pairs.  Any exception inside a check, not only
    CheckFailed, is reported as that check's failure without a traceback,
    and the remaining checks still run."""
    results = []
    for name, fn in CHECKS:
        try:
            fn(*(_clamp(max_n, floor, cap) for floor, cap in VERIFY_BOUNDS[name]))
        except Exception as exc:  # a loud kernel error fails this check only
            message = str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
            results.append((name, message))
            report(f"FAIL {name}: {message}")
        else:
            results.append((name, None))
            report(f"  ok {name}")
    return results
