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
for them.

The solver is written in ``SymSeries`` arithmetic: sums, the shift by t,
one plethysm of degree n for each S_n (summed for every k at once in one
packed accumulator), and ``_divexact_tminus1``, the one exact division of a
series by (t - 1).  The integer form they run on, unpacked rows over a
denominator per degree, lives in ``symseries``; a sum holds each degree it
summed at its least denominator, so the solver keeps none of its own and
builds no Fraction.

Alongside the solver this module carries the rank specialization of the
equivariant solution, one route to the rank polynomials H_n^num (the
independent numerical routes are in ``numeric``), and the level filtration
that rebuilds B stratum layer by stratum layer.
"""

from __future__ import annotations

from functools import lru_cache

from .pointcounts import m_series
from .symseries import PlethysmCache, Rows, SymSeries, _lowest_terms, _over_tminus1, plethysm, rk
from .tpoly import TPoly, T


def growth_series(M: SymSeries) -> SymSeries:
    """G = h_1 + (t - 1) M, the inner series of every composition here.

    (t - 1) M is taken as M t - M, a shift of t-exponents and a sum, so each
    degree of G stays over the denominator of M's; a product with (t - 1)
    would lift every degree to the common denominator of all of M."""
    return SymSeries.p(1, M.n_max) + M * T - M


def _divexact_tminus1(s: SymSeries) -> SymSeries:
    """Divide every p-monomial's t-polynomial by (t - 1); remainder must
    vanish.  Each integer row is divided by the synthetic division
    `_over_tminus1`, and each degree's quotient is brought to its least
    denominator."""
    form = {}
    for d, (den, rows) in s._int.items():
        quotient: Rows = {}
        for parts, row in rows.items():
            quotient_row, remainder = _over_tminus1(row)
            if remainder:
                from fractions import Fraction

                raise ValueError(
                    f"nonzero remainder {Fraction(remainder, den)} dividing the coefficient"
                    f" of p_{parts} (degree {d}) by (t - 1)"
                )
            if quotient_row:
                quotient[parts] = quotient_row
        if quotient:
            form[d] = _lowest_terms(den, quotient)
    return SymSeries._from_int(s.n_max, form)


def solve_B(M: SymSeries) -> SymSeries:
    """Solve for B degree by degree: B_n = M_n + S_n / (t - 1), with
    S_n = [B_<n o G]_n.  Nothing is imposed at n = 2: B_<2 is zero, so
    B_2 = M_2.

    S_n is one plethysm call of degree n on the components solved so far,
    one packed accumulator for every k < n; it is divided by (t - 1), a
    nonzero remainder raising ValueError, and added to M_n, which leaves
    B_n at its least denominator.  B is truncated where M is, and an input
    truncated below degree 2 gives the zero series.

    The linearization needs G_1 = h_1, so an input with a part of degree 0
    or 1 raises ValueError naming that degree."""
    low = min(M.degrees(), default=2)
    if low < 2:
        raise ValueError(
            f"input series has a part of degree {low}: every part must have degree at least 2"
        )
    if M.n_max < 2:
        return SymSeries.zero(M.n_max)
    G = growth_series(M)
    cache = PlethysmCache(G)
    B = M.component(2)
    for n in range(3, M.n_max + 1):
        B = B + M.component(n) + _divexact_tminus1(plethysm(B, G, cache, degree=n))
    return B


def verify_functional_equation(B: SymSeries, M: SymSeries) -> bool:
    """Recompute both sides of the fixed-point equation and compare."""
    h1 = SymSeries.p(1, min(B.n_max, M.n_max))
    return plethysm(h1 + B, growth_series(M)) == h1 + B * T


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
