"""Symmetric group characters and the Schur basis.

Both directions of the Murnaghan-Nakayama rule are implemented on
first-column hook lengths (beta numbers): removing a border strip of size r
lowers one beta number by r, adding one raises one by r, and the sign is
read off from the number of beta numbers jumped over.

`character_value` and `character_table` apply the removal form recursively,
chi^lam(mu) = sum over strips lam/nu of size mu_1 of +-chi^nu(mu_2, ...).
`schur_series` reads them.

`schur_expand` applies the adding form, p_r s_nu = sum +-s_lam over strips
lam/nu of size r, straight to a series' integer rows, and builds no
character table: the terms c p_mu start at the node mu, and each node nu,
largest first, multiplies its Schur vector by p_(last part of nu) and adds
it into the node nu minus its last part.  Partitions that share a prefix
share that work, and the root holds every <f, s_lam> at once.  Each t-row
is one int packed at a proved width (`symseries._pack`), so adding a strip
is one bigint addition.  The removal route stays as the independent oracle
for it (`checks`, tests).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt

from .partitions import Partition, partitions_of, z_lambda
from .symseries import SymSeries, _numerators, _pack, _unpack
from .tpoly import TPoly, ratio


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
def _add_strips(lam: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """Partitions obtained by adding a border strip of size r, with signs.

    The exact inverse of `_strips`: (nu, sign) is listed for (lam, r) here
    exactly when (lam, sign) is listed for (nu, r) there.  lam is padded with
    r zero rows, enough for any strip of size r to end in.  Raising the beta
    number of row i by r moves it up past the height h = i - j beta numbers
    it jumps over: the strip's head lands in row j, and rows j+1..i each take
    the part of the row above plus one.  Row j holds a part of lam (the head
    stays below the row above it), so the result is lam up to row j, the
    strip's rows, and lam past row i, with no padding left to strip.
    """
    parts = lam + (0,) * r
    ell = len(parts)
    betas = [p + (ell - 1 - i) for i, p in enumerate(parts)]
    results = []
    for i, b in enumerate(betas):
        nb = b + r
        j = i
        while j and betas[j - 1] < nb:
            j -= 1
        if j and betas[j - 1] == nb:
            continue
        new = lam[:j] + (nb - (ell - 1 - j),) + tuple(p + 1 for p in parts[j:i]) + lam[i + 1:]
        results.append((new, -1 if (i - j) % 2 else 1))
    return tuple(results)


@lru_cache(maxsize=None)
def _character_value(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    return sum(sign * _character_value(sub, rest) for sub, sign in _strips(lam, r))


def character_value(lam: Partition, mu: Partition) -> int:
    """chi^lam(mu) for partitions of the same size."""
    if sum(lam) != sum(mu):
        raise ValueError(f"character value of partitions of different sizes: {lam} and {mu}")
    return _character_value(lam, mu)


class CharacterTable:
    """The integer character table of S_n, values[(lam, mu)] = chi^lam(mu).
    Immutable: ``character_table`` hands the same instance to every caller."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[tuple[Partition, Partition], int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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
    values = {(lam, mu): _character_value(lam, mu) for lam in lams for mu in lams}
    return CharacterTable(n, values)


def schur_series(lam: Partition, n_max: int | None = None) -> SymSeries:
    """The Schur function s_lam in the power-sum basis."""
    from fractions import Fraction

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

    Returns only the nonzero coefficients <f, s_lam>, as polynomials in t,
    in the order of `partitions_of(n)`.  Each term c t^k p_mu becomes entry k
    of an integer row over f's common denominator, packed into one int and
    held at the node mu as the Schur vector {(): row}.  For j = n down to 1,
    every node nu of size j multiplies its vector by p_r, r = nu[-1], through
    `_add_strips`, and adds the result into the node nu[:-1]; the root ()
    then holds p_mu = sum_lam chi^lam(mu) s_lam summed over f.  Each output
    coefficient is its row entry over the denominator: an int where that
    divides exactly, so an integral table builds no Fraction.

    The packing width is proved: the entry k of the root's row lam is
    sum_mu chi^lam(mu) N_mu,k, and |chi^lam(mu)| <= f^lam <= sqrt(n!) since
    the squares of the dimensions f^lam sum to n!.  So every entry is at most
    isqrt(n!) times the l1 norm of f's rows, and a width one bit above that
    bound's bit length reads each entry back as a balanced digit.  Packed
    sums are exact integer sums, so only the root's entries need the bound.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if not f.is_homogeneous(n):
        raise ValueError(f"series is not homogeneous of degree {n}")
    den, rows = _numerators(f, n)
    l1 = sum(abs(v) for row in rows.values() for v in row.values())
    width = (isqrt(factorial(n)) * l1).bit_length() + 1
    # nodes[j]: partition nu of size j -> its Schur vector {lam: packed t-row}
    nodes: list[dict[Partition, dict[Partition, int]]] = [{} for _ in range(n + 1)]
    for mu, row in rows.items():
        nodes[n][mu] = {(): _pack(row, width)}
    for j in range(n, 0, -1):
        for nu, vec in nodes[j].items():
            r = nu[-1]
            parent = nodes[j - r].setdefault(nu[:-1], {})
            get = parent.get
            for lam, x in vec.items():
                for sup, sign in _add_strips(lam, r):
                    parent[sup] = get(sup, 0) + x if sign > 0 else get(sup, 0) - x
        nodes[j] = {}
    root = nodes[0].get((), {})
    out: dict[Partition, TPoly] = {}
    for lam in partitions_of(n):
        x = root.get(lam)
        if x:
            row = _unpack(x, width)
            out[lam] = TPoly([ratio(row.get(k, 0), den) for k in range(max(row) + 1)])
    return out


def schur_combination(coeffs: dict[Partition, TPoly], n_max: int | None = None) -> SymSeries:
    """Rebuild sum c_lam(t) s_lam as a power-sum series (inverse of schur_expand)."""
    if n_max is None:
        n_max = max((sum(lam) for lam in coeffs), default=0)
    acc = SymSeries.zero(n_max)
    for lam, poly in coeffs.items():
        acc = acc + schur_series(lam, n_max) * poly
    return acc
