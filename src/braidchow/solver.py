"""Degreewise solution of the plethystic fixed-point equation.

The equivariant Chow series B, one ``SymSeries`` whose homogeneous
components B_n (n >= 2) are read off by ``B.component(n)``, is the unique
solution of

    (h_1 + B) o (h_1 + (t - 1) M) = h_1 + t B,

where M is the open-curves input series and o is plethysm.  In each degree n
the equation linearizes to

    B_n = M_n + S_n / (t - 1),    S_n = [B_<n o G]_n = sum_{k=2}^{n-1} [B_k o G]_n,

with G = h_1 + (t - 1) M and B_<n = B_2 + ... + B_{n-1}, and the division by
(t - 1) must be exact.  At t = 1 the inner series G is h_1, so the division
is exact for every input series; a nonzero remainder signals a fault in the
plethysm or the solver itself, and the division doubles as error detection
for them.  S_n is one plethysm of degree n, summed for every k at once in
one packed accumulator, and divided as integer numerators over its
denominator, by the synthetic division ``symseries._over_tminus1`` that
also builds the input series.  The input series, the inner series G, every
S_n and the returned series B all stay in the integer form of ``symseries``
(unpacked rows over a denominator, one part per degree), so the solver
builds no Fraction.

Alongside the solver this module carries the rank specialization of the
equivariant solution, one route to the rank polynomials H_n^num (the
independent numerical routes are in ``numeric``), and the level filtration
that rebuilds B stratum layer by stratum layer.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition
from .pointcounts import m_series
from .symseries import (
    PlethysmCache,
    Rows,
    SymSeries,
    _add_parts,
    _lowest_terms,
    _over_tminus1,
    plethysm,
    rk,
)
from .tpoly import TPoly, T


def growth_series(M: SymSeries) -> SymSeries:
    """G = h_1 + (t - 1) M, the inner series of every composition here, in
    integer form: p_1 in degree 1, and (t - 1) times the numerators of M_n
    over their denominator in each degree n."""
    form = {1: (1, {(1,): {0: 1}})} if M.n_max >= 1 else {}
    for n, (den, rows) in sorted(M._int.items()):
        form[n] = (den, _times_tminus1(rows))
    return SymSeries._from_int(M.n_max, form)


def _times_tminus1(rows: Rows) -> Rows:
    """(t - 1) times integer rows; entries that cancel are dropped, and no
    nonzero row becomes empty."""
    out: Rows = {}
    for parts, row in rows.items():
        acc: dict[int, int] = {}
        for k, c in row.items():
            acc[k + 1] = acc.get(k + 1, 0) + c
            acc[k] = acc.get(k, 0) - c
        out[parts] = {k: c for k, c in acc.items() if c}
    return out


def _rows_over_tminus1(rows: Rows, den: int) -> Rows:
    """Divide every p-monomial's integer t-polynomial by (t - 1)
    (`_over_tminus1`); the remainder must vanish.  den is only for the error
    message."""
    out: Rows = {}
    for parts, row in rows.items():
        quotient, remainder = _over_tminus1(row)
        if remainder:
            from fractions import Fraction

            raise ValueError(
                f"nonzero remainder {Fraction(remainder, den)} dividing the coefficient"
                f" of p_{parts} (degree {sum(parts)}) by (t - 1)"
            )
        if quotient:
            out[parts] = quotient
    return out


def _divexact_tminus1(s: SymSeries) -> SymSeries:
    """Divide every p-monomial's t-polynomial by (t - 1); remainder must
    vanish.  Runs degree by degree on the integer form of s, and brings each
    quotient to its least denominator."""
    form = {}
    for d, (den, rows) in s._int.items():
        quotient = _rows_over_tminus1(rows, den)
        if quotient:
            form[d] = _lowest_terms(den, quotient)
    return SymSeries._from_int(s.n_max, form)


def solve_B(M: SymSeries) -> SymSeries:
    """Solve for B degree by degree: B_n = M_n + S_n / (t - 1), with
    S_n = [B_<n o G]_n.  Nothing is imposed at n = 2: B_<2 is zero, so
    B_2 = M_2 by the same rule.

    S_n is one plethysm call of degree n on a snapshot of the components
    solved so far, one packed accumulator for every k < n; it is divided by
    (t - 1) as integer numerators over its denominator, a nonzero remainder
    raising ValueError, and added to M_n.  Each B_n is held in integer form
    at its least denominator, and B is truncated where M is."""
    n_max = M.n_max
    G = growth_series(M)
    cache = PlethysmCache(G)
    form: dict[int, tuple[int, Rows]] = {}
    for n in range(2, n_max + 1):
        parts = [M._int[n]] if n in M._int else []
        if form:
            below = SymSeries._from_int(n_max, dict(form))  # B_<n, a copy: form gains B_n below
            s_n = plethysm(below, G, cache, degree=n)._int.get(n)
            if s_n:
                den_s, rows_s = s_n
                parts.append((den_s, _rows_over_tminus1(rows_s, den_s)))
        if parts:
            den, rows = _add_parts(*parts)
            if rows:
                form[n] = _lowest_terms(den, rows)
    return SymSeries._from_int(n_max, form)


def verify_functional_equation(
    B: SymSeries, M: SymSeries, cache: PlethysmCache | None = None
) -> bool:
    """Recompute both sides of the fixed-point equation and compare.

    An optional plethysm cache (keyed to this M's inner series) makes
    repeated verification, e.g. under perturbations of B, cheap.
    """
    n_max = min(B.n_max, M.n_max)
    G = growth_series(M)
    if cache is not None:
        if cache.g != G:
            raise ValueError("plethysm cache was built for a different input series")
        G = cache.g
    h1 = SymSeries.p(1, n_max)
    lhs = plethysm(h1 + B, G, cache)
    rhs = h1 + B * T
    return lhs == rhs


def level_filtration(M: SymSeries) -> list[SymSeries]:
    """Stratum layers by number of levels: the first layer is M itself and

        (t - 1) * layer_{k+1} = layer_k o G - layer_k,

    with exact division.  Stops at the first layer that vanishes through
    M.n_max; their sum is the full solution."""
    G = growth_series(M)
    cache = PlethysmCache(G)
    layers: list[SymSeries] = []
    current = M
    while current:
        if len(layers) > M.n_max:
            raise ArithmeticError("filtration failed to terminate; input is corrupted")
        layers.append(current)
        current = _divexact_tminus1(plethysm(current, G, cache) - current)
    return layers


@lru_cache(maxsize=None)
def solved_series(n_max: int) -> SymSeries:
    """Input construction plus solver, cached per truncation degree."""
    return solve_B(m_series(n_max))


def equivariant_table(n: int) -> dict[Partition, TPoly]:
    """Schur coefficients of the degree-n solution component."""
    from .characters import schur_expand

    if n < 2:
        raise ValueError("the table starts at n = 2")
    return schur_expand(solved_series(n).component(n), n)


def hnum_from_solver(B: SymSeries) -> dict[int, TPoly]:
    """Rank specialization of the equivariant solution."""
    dims = rk(B)
    hnum = {1: TPoly.const(1)}
    hnum.update({n: poly for n, poly in dims.items() if n >= 2})
    return hnum


# The numeric routes live in ``numeric``; the benchmark's tracer still looks
# them up here.  They are read from ``numeric`` on each access and never bound
# in this module, so ``table`` does not compile ``numeric`` and a rebinding
# of ``numeric.hnum_*`` shows here too.
_NUMERIC_ROUTES = ("hnum_bell", "hnum_lattice", "hnum_stirling")


def __getattr__(name):
    if name in _NUMERIC_ROUTES:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
