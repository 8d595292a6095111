"""Degreewise solution of the plethystic fixed-point equation.

The equivariant Chow series B (one homogeneous component per n >= 2) is the
unique solution of

    (h_1 + B) o (h_1 + (t - 1) M) = h_1 + t B,

where M is the open-curves input series and o is plethysm.  In each degree n
the equation linearizes to

    (t - 1) B_n = (t - 1) M_n + sum_{k=2}^{n-1} [B_k o G]_n,    G = h_1 + (t-1) M,

and exact division by (t - 1) must leave no remainder.  At t = 1 the inner
series G is h_1, so the division is exact for every input series; a nonzero
remainder signals a fault in the plethysm or the solver itself, and the
division doubles as error detection for them.  The right-hand side is summed,
and divided, as integer numerators over one common denominator per degree,
and Fractions are made only for the returned components B_n.

Alongside the solver this module carries every independent numerical route
to the rank polynomials H_n^num: the Stirling-number recursion, the partial
Bell polynomial recursion, the set-partition-lattice recursion, and the rank
specialization of the equivariant solution; plus the level filtration that
rebuilds B stratum layer by stratum layer.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .characters import schur_expand
from .combinat import (
    bell_partial,
    omega_shifted,
    set_partitions,
    stirling_first_signed,
    stirling_second,
)
from .graded import GradedSeries
from .partitions import Partition
from .pointcounts import m_series
from .symseries import PlethysmCache, Rows, SymSeries, _fractions, _numerators, plethysm, rk
from .tpoly import TPoly, T, T_MINUS_ONE


def growth_series(M: GradedSeries) -> SymSeries:
    """G = h_1 + (t - 1) M, the inner series of every composition here."""
    return SymSeries.p(1, M.n_max) + M.total() * T_MINUS_ONE


def _times_tminus1(rows: Rows, lift: int = 1) -> Rows:
    """(t - 1) times integer rows, each numerator also multiplied by lift."""
    out: Rows = {}
    for parts, row in rows.items():
        acc = out[parts] = {}
        for k, c in row.items():
            c *= lift
            acc[k + 1] = acc.get(k + 1, 0) + c
            acc[k] = acc.get(k, 0) - c
    return out


def _rows_over_tminus1(rows: Rows, den: int) -> Rows:
    """Divide every p-monomial's integer t-polynomial by (t - 1); the
    remainder must vanish.  Synthetic division: the quotient's coefficient of
    t^(k-1) is the sum of the coefficients of t^k and above, and the sum of
    all coefficients is the remainder.  den is only for the error message."""
    out: Rows = {}
    for parts, coeffs in rows.items():
        quotient = {}
        carry = 0
        for k in range(max(coeffs), 0, -1):
            carry += coeffs.get(k, 0)
            if carry:
                quotient[k - 1] = carry
        remainder = carry + coeffs.get(0, 0)
        if remainder:
            raise ValueError(
                f"nonzero remainder {Fraction(remainder, den)} dividing the coefficient"
                f" of p_{parts} (degree {sum(parts)}) by (t - 1)"
            )
        if quotient:
            out[parts] = quotient
    return out


def _divexact_tminus1(s: SymSeries) -> SymSeries:
    """Divide every p-monomial's t-polynomial by (t - 1); remainder must
    vanish.  Runs on integer numerators over the common denominator of s."""
    den, rows = _numerators(s, s.n_max)
    return SymSeries._trusted(s.n_max, _fractions(_rows_over_tminus1(rows, den), den))


def solve_B(M: GradedSeries, n_max: int | None = None) -> GradedSeries:
    """Solve for B degree by degree; the n = 2 component comes out equal to
    the degree-2 input component rather than being imposed.

    Each right-hand side (t - 1) M_n + sum_k [B_k o G]_n is summed as
    integer numerators over one common denominator and divided by (t - 1)
    there; Fractions are built only for the components B_n."""
    if n_max is None:
        n_max = M.n_max
    if n_max > M.n_max:
        raise ValueError("input series is too short for the requested degree")
    G = growth_series(M)
    cache = PlethysmCache(G)
    components: dict[int, SymSeries] = {}
    composed: list[dict[int, SymSeries]] = []  # each B_k o G by degree, truncated at n_max
    for n in range(2, n_max + 1):
        den_m, m_rows = _numerators(M.component(n), n_max)
        # each piece is read once; popping it frees it before the next plethysm
        pieces = [by_deg.pop(n).terms for by_deg in composed if n in by_deg]
        den = lcm(den_m, *(c.denominator for terms in pieces for c in terms.values()))
        rhs = _times_tminus1(m_rows, den // den_m)
        for terms in pieces:
            for (parts, k), c in terms.items():
                acc = rhs.get(parts)
                if acc is None:
                    acc = rhs[parts] = {}
                acc[k] = acc.get(k, 0) + c.numerator * (den // c.denominator)
        b_n = SymSeries._trusted(n_max, _fractions(_rows_over_tminus1(rhs, den), den))
        components[n] = b_n
        if n < n_max:
            composed.append(plethysm(b_n, G, cache).by_degree())
    return GradedSeries(n_max, components)


def verify_functional_equation(
    B: GradedSeries, M: GradedSeries, cache: PlethysmCache | None = None
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
    lhs = plethysm((h1 + B.total()).truncate(n_max), G, cache)
    rhs = (h1 + B.total() * T).truncate(n_max)
    return lhs == rhs


def level_filtration(M: GradedSeries, n_max: int | None = None) -> list[GradedSeries]:
    """Stratum layers by number of levels: the first layer is M itself and

        (t - 1) * layer_{k+1} = layer_k o G - layer_k,

    with exact division.  Stops at the first layer that vanishes through
    n_max; their sum is the full solution."""
    if n_max is None:
        n_max = M.n_max
    G = growth_series(M).truncate(n_max)
    cache = PlethysmCache(G)
    layers: list[GradedSeries] = []
    current = GradedSeries(n_max, dict(M.components))
    while not current.is_zero():
        if len(layers) > n_max:
            raise ArithmeticError("filtration failed to terminate; input is corrupted")
        layers.append(current)
        total = current.total()
        nxt = _divexact_tminus1(plethysm(total, G, cache) - total)
        current = GradedSeries.split(nxt)
    return layers


@lru_cache(maxsize=None)
def solved_series(n_max: int) -> GradedSeries:
    """Input construction plus solver, cached per truncation degree."""
    return solve_B(m_series(n_max), n_max)


def equivariant_table(n: int, B: GradedSeries | None = None) -> dict[Partition, TPoly]:
    """Schur coefficients of the degree-n solution component."""
    if n < 2:
        raise ValueError("the table starts at n = 2")
    if B is None:
        B = solved_series(n)
    return schur_expand(B.component(n), n)


# -- numerical routes --------------------------------------------------------


def hnum_stirling(n_max: int) -> dict[int, TPoly]:
    """Recursion via sums of first- times second-kind Stirling numbers."""
    hnum: dict[int, TPoly] = {1: TPoly.const(1)}
    for n in range(2, n_max + 1):
        rhs = TPoly()
        for k in range(1, n):
            inner = TPoly(
                [
                    stirling_first_signed(n, j + k) * stirling_second(j + k, k)
                    for j in range(0, n - k + 1)
                ]
            )
            rhs = rhs + hnum[k] * inner
        hnum[n] = rhs.divexact(T_MINUS_ONE)
    return hnum


def hnum_bell(n_max: int) -> dict[int, TPoly]:
    """Recursion via partial Bell polynomials in omega_i(t - 1)."""
    hnum: dict[int, TPoly] = {1: TPoly.const(1)}
    for n in range(2, n_max + 1):
        rhs = TPoly()
        for k in range(1, n):
            args = [omega_shifted(i) for i in range(1, n - k + 2)]
            rhs = rhs + hnum[k] * bell_partial(n, k, args)
        hnum[n] = rhs.divexact(T_MINUS_ONE)
    return hnum


def hnum_lattice(n_max: int) -> dict[int, TPoly]:
    """Recursion by brute-force enumeration of set partitions of {1..n}.

    Deliberately independent of the Bell-polynomial closed form: every set
    partition contributes the product of omega_{block size}(t-1) over its
    blocks.  The partitions are tallied by block-size multiset first, so the
    polynomial product is formed once per shape rather than once per
    partition; the walk still visits every partition."""
    if n_max > 12:
        raise ValueError("set-partition enumeration is capped at n_max = 12")
    hnum: dict[int, TPoly] = {1: TPoly.const(1)}
    for n in range(2, n_max + 1):
        shapes: Counter = Counter()
        for blocks in set_partitions(range(1, n + 1)):
            shapes[tuple(sorted(len(block) for block in blocks))] += 1
        rhs = TPoly()
        for shape, count in shapes.items():
            k = len(shape)
            if k == n:
                continue  # the all-singletons partition is the excluded bottom flat
            prod = TPoly.const(count)
            for size in shape:
                prod = prod * omega_shifted(size)
            rhs = rhs + hnum[k] * prod
        hnum[n] = rhs.divexact(T_MINUS_ONE)
    return hnum


def hnum_from_solver(B: GradedSeries) -> dict[int, TPoly]:
    """Rank specialization of the equivariant solution."""
    dims = rk(B.total())
    hnum = {1: TPoly.const(1)}
    hnum.update({n: poly for n, poly in dims.items() if n >= 2})
    return hnum


def euler_chars(n_max: int) -> dict[int, int]:
    """Total-dimension recursion:
    chi_n = sum_{k<n} chi_k * C(n, k-1) * (n-k-1)! * (-1)^(n-k-1)."""
    chi = {1: 1}
    for n in range(2, n_max + 1):
        chi[n] = sum(
            chi[k] * comb(n, k - 1) * factorial(n - k - 1) * (-1) ** (n - k - 1)
            for k in range(1, n)
        )
    return chi
