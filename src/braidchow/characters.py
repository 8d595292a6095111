"""Symmetric group characters and the Schur basis.

Irreducible character values are computed by the Murnaghan-Nakayama
border-strip recursion, implemented on first-column hook lengths (beta
numbers): removing a strip of size r means lowering one beta number by r,
and the sign is read off from the number of beta numbers jumped over.
Tables are cached per n; together with the power-sum inner product
<p_lam, p_mu> = z_lam [lam = mu] they give Schur expansions of any
homogeneous series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .partitions import Partition, partitions_of, z_lambda
from .symseries import SymSeries
from .tpoly import TPoly


@lru_cache(maxsize=None)
def _strips(lam: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """Partitions obtained by removing a border strip of size r, with signs."""
    ell = len(lam)
    betas = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(betas)
    results = []
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new = sorted((beta_set - {b}) | {nb}, reverse=True)
        parts = tuple(x - (ell - 1 - i) for i, x in enumerate(new))
        parts = tuple(p for p in parts if p > 0)
        results.append((parts, -1 if height % 2 else 1))
    return tuple(results)


@lru_cache(maxsize=None)
def character_value(lam: Partition, mu: Partition) -> int:
    """chi^lam(mu) for partitions of the same size."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    return sum(sign * character_value(sub, rest) for sub, sign in _strips(lam, r))


@dataclass(frozen=True)
class CharacterTable:
    n: int
    values: dict[tuple[Partition, Partition], int]

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.values[(lam, mu)]

    def dimension(self, lam: Partition) -> int:
        return self.values[(lam, (1,) * self.n)]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Full integer character table of the symmetric group on n letters."""
    if n < 1:
        raise ValueError("n must be positive")
    lams = partitions_of(n)
    values = {(lam, mu): character_value(lam, mu) for lam in lams for mu in lams}
    return CharacterTable(n, values)


def schur_series(lam: Partition, n_max: int | None = None) -> SymSeries:
    """The Schur function s_lam in the power-sum basis."""
    n = sum(lam)
    if n_max is None:
        n_max = n
    table = character_table(n) if n else None
    terms = {}
    if n == 0:
        return SymSeries.one(n_max)
    for mu in partitions_of(n):
        c = table.chi(lam, mu)
        if c:
            terms[(mu, 0)] = Fraction(c, z_lambda(mu))
    return SymSeries(n_max, terms)


def schur_expand(f: SymSeries, n: int) -> dict[Partition, TPoly]:
    """Schur coefficients of a series homogeneous of degree n.

    Returns only the nonzero coefficients, as polynomials in t.  Uses
    <f, s_lam> = sum_mu chi^lam(mu) * (coefficient of p_mu in f), summed over
    integer numerators on f's common denominator; one Fraction is built per
    output coefficient.
    """
    if not f.is_homogeneous(n):
        raise ValueError(f"series is not homogeneous of degree {n}")
    table = character_table(n)
    den = lcm(*(c.denominator for c in f.terms.values()))
    width = f.t_degree() + 1
    rows: dict[Partition, list[int]] = {}
    for (mu, k), c in f.terms.items():
        row = rows.get(mu)
        if row is None:
            row = rows[mu] = [0] * width
        row[k] = c.numerator * (den // c.denominator)
    out: dict[Partition, TPoly] = {}
    for lam in partitions_of(n):
        acc = [0] * width
        for mu, row in rows.items():
            chi = table.chi(lam, mu)
            if chi:
                for k, v in enumerate(row):
                    acc[k] += chi * v
        if any(acc):
            out[lam] = TPoly([Fraction(v, den) for v in acc])
    return out


def schur_combination(coeffs: dict[Partition, TPoly], n_max: int | None = None) -> SymSeries:
    """Rebuild sum c_lam(t) s_lam as a power-sum series (inverse of schur_expand)."""
    if n_max is None:
        n_max = max((sum(lam) for lam in coeffs), default=0)
    acc = SymSeries.zero(n_max)
    for lam, poly in coeffs.items():
        acc = acc + schur_series(lam, n_max) * poly
    return acc
