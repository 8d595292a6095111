"""The open-curves input series, built from twisted configuration counts.

The degree-n input component records, cycle type by cycle type, how many
n-point configurations on the affine line are fixed by a permutation twist
of Frobenius over a field with q elements.  Each cycle of length d pins a
closed point of degree d (with d choices of alignment), and distinct cycles
need distinct closed points, so the count is a product of falling factorials
in the necklace numbers.  Quotienting by the affine group, whose order is
q(q - 1), and assembling the counts with weights 1/z_lambda yields the
graded character of the moduli of distinct points on the projective line
with one point pinned; purity lets q double as the grading variable t.

The counts are built on integers: d * necklace(d) is an integer polynomial,
so each twisted count is a product of integer lists, built from the count of
the partition without its last part, and its division by q(q - 1) is a
shift and the synthetic division by (q - 1) that the solver uses too
(``symseries._over_tminus1``), checked to leave no remainder.  The series
is one ``SymSeries`` held in integer form (``SymSeries._from_int``): the
term c / z_lambda of degree n is the numerator c * n! / z_lambda over n!,
and each component is brought to its least denominator, so no Fraction is
made until its terms are read.
``m_series`` checks two invariants of every component as it builds the
series: the t-degree of M_n is at most n - 2, and its rank polynomial is
omega_n(t - 1) / (t - 1) = (t - 2)(t - 3)...(t - n + 1).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import Partition, partitions_of, z_lambda
from .symseries import SymSeries, _lowest_terms, _over_tminus1, rk
from .tpoly import TPoly


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def _d_necklace(d: int) -> tuple[int, ...]:
    """d * necklace(d) = sum_{e|d} mu(e) q^{d/e} as integer coefficients,
    lowest degree first; the constant term is 0."""
    if d < 1:
        raise ValueError("d must be positive")
    coeffs = [0] * (d + 1)
    for e in range(1, d + 1):
        if d % e == 0:
            coeffs[d // e] += _mobius(e)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def necklace(d: int) -> TPoly:
    """Number of degree-d closed points of the affine line: (1/d) sum_{e|d} mu(e) q^{d/e}.

    The coefficients are rational (e.g. (q^2 - q)/2 at d = 2); only the
    values at prime powers are integers.
    """
    from fractions import Fraction

    return TPoly(Fraction(c, d) for c in _d_necklace(d))


@lru_cache(maxsize=None)
def _twisted(lam: Partition) -> tuple[int, ...]:
    """Integer coefficients, lowest degree first, of the twisted count of lam:
    the product over part sizes d and i < m_d of d*necklace(d) - d*i.  Built
    from the count of lam without its last part d, times the one factor that
    part adds, d*necklace(d) - d*i with i the parts d before it; partitions
    that share a prefix share its product."""
    if not lam:
        return (1,)
    head, d = lam[:-1], lam[-1]
    factor = list(_d_necklace(d))
    factor[0] = -d * head.count(d)
    poly = _twisted(head)
    out = [0] * (len(poly) + d)
    for j, a in enumerate(poly):
        if a:
            for k, b in enumerate(factor):
                if b:
                    out[j + k] += a * b
    return tuple(out)


def twisted_count(lam: Partition) -> TPoly:
    """Configurations on the affine line fixed by a cycle-type-lam twist of
    Frobenius: prod over part sizes d of d^m_d * necklace(d) falling m_d.

    Grouping d^m_d into the falling factorial makes every factor
    d*necklace(d) - d*i an integer polynomial, so the count is a product of
    integer lists; this is a view of the routine the input series is built
    from."""
    return TPoly(_twisted(lam))


def _affine_quotient(lam: Partition) -> dict[int, int]:
    """The twisted count of lam divided by q(q - 1), exactly, on integers, as
    q-exponent -> nonzero coefficient: drop the constant term, then divide
    by (q - 1) (`_over_tminus1`).  Raises ValueError if the division leaves
    a remainder."""
    coeffs = _twisted(lam)
    quotient, remainder = _over_tminus1({k - 1: c for k, c in enumerate(coeffs) if k and c})
    if coeffs[0] or remainder:
        raise ValueError(
            f"twisted count of cycle type {lam} is not divisible by q(q - 1):"
            f" {TPoly(coeffs)}"
        )
    return quotient


def m_component(n: int) -> SymSeries:
    """Degree-n component of the input series: sum over cycle types of
    twisted_count / (q(q-1)) * p_lambda / z_lambda, with q read as t."""
    if n < 2:
        raise ValueError("components start at n = 2")
    fact = factorial(n)  # every z_lambda divides n!: n!/z_lambda is a class size
    rows = {}
    for lam in partitions_of(n):
        size = fact // z_lambda(lam)
        rows[lam] = {k: c * size for k, c in _affine_quotient(lam).items()}
    return SymSeries._from_int(n, {n: _lowest_terms(fact, rows)})


def _check_component(n: int, comp: SymSeries):
    """The invariants of the degree-n input component: t-degree at most
    n - 2, and n! [p_(1^n)] M_n = omega_n(t - 1) / (t - 1), the product of
    (t - j) for j = 2..n - 1."""
    if comp.t_degree() > n - 2:
        raise ValueError(f"component {n} exceeds t-degree {n - 2}")
    expected = TPoly((1,))
    for j in range(2, n):
        expected = expected * TPoly((-j, 1))
    if rk(comp).get(n, TPoly()) != expected:
        raise ValueError(f"component {n} fails the rank-polynomial invariant")


@lru_cache(maxsize=None)
def m_series(n_max: int) -> SymSeries:
    """Input series with components 2..n_max, each checked on build, cached
    per truncation degree: every caller shares one series."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    M = SymSeries._from_int(n_max, {n: m_component(n)._int[n] for n in range(2, n_max + 1)})
    for n, comp in M.components.items():
        _check_component(n, comp)
    return M
