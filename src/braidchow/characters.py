"""Symmetric group characters and the Schur basis.

Both directions of the Murnaghan-Nakayama rule are implemented on
first-column hook lengths (beta numbers): removing a border strip of size r
lowers one beta number by r, adding one raises one by r, and the sign is
read off from the number of beta numbers jumped over.  The adding form runs
on bead masks, the beta numbers of a partition as the set bits of one int
(`_partition`), so a strip is a few bit operations on it.

`character_value` and `character_table` apply the removal form recursively,
chi^lam(mu) = sum over strips lam/nu of size mu_1 of +-chi^nu(mu_2, ...).

`schur_expand` applies the adding form, p_r s_nu = sum +-s_lam over strips
lam/nu of size r, straight to a series' integer rows, and builds no
character table: the terms c p_mu start at the node mu, and each node nu,
largest first, multiplies its Schur vector by p_(last part of nu) and adds
it into the node nu minus its last part.  Partitions that share a prefix
share that work, and the root holds every <f, s_lam> at once.  Each t-row
is one int packed at a proved width (`symseries._pack`), so adding a strip
is one bigint addition, and each Schur vector is keyed by bead masks, which
are decoded to partitions once, at the root.  The removal route stays as
the independent oracle for it (`checks`, tests).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt
from types import MappingProxyType

from .partitions import Partition, partitions_of
from .symseries import SymSeries, _pack, _unpack
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


def _partition(mask: int) -> Partition:
    """The partition of a bead mask.  With K beads, lam has bit
    lam_i - i + K set for i = 1..K, lam padded with zero rows to K rows;
    so the j-th lowest bead (j = 0, 1, ...) sits at lam_i + j, lam_i the
    part of its row, and a bead at j is an empty row."""
    parts = []
    j = 0
    while mask:
        low = mask & -mask
        p = low.bit_length() - 1 - j
        if p:
            parts.append(p)
        mask ^= low
        j += 1
    return tuple(reversed(parts))


@lru_cache(maxsize=None)
def _add_strips(mask: int, r: int) -> tuple[tuple[int, int], ...]:
    """Bead masks obtained by adding a border strip of size r, with signs.

    The exact inverse of `_strips` on bead masks (`_partition`):
    adding a strip moves one bead r places up into a gap, so the movable
    beads are those of mask & ~(mask >> r), and the strip's height, whose
    parity is the sign, is the number of beads jumped over.  A strip is
    found only where the result has no more rows than the mask has beads.
    """
    results = []
    movable = mask & ~(mask >> r)
    while movable:
        low = movable & -movable
        movable ^= low
        high = low << r
        height = (mask & (high - (low << 1))).bit_count()
        results.append((mask ^ low ^ high, -1 if height & 1 else 1))
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


@lru_cache(maxsize=None)
def character_table(n: int) -> MappingProxyType[tuple[Partition, Partition], int]:
    """Full integer character table of the symmetric group on n letters,
    read as table[lam, mu] = chi^lam(mu).  Read-only: every caller shares
    one table."""
    if n < 1:
        raise ValueError("n must be positive")
    lams = partitions_of(n)
    return MappingProxyType({(lam, mu): _character_value(lam, mu) for lam in lams for mu in lams})


def schur_expand(f: SymSeries, n: int) -> dict[Partition, TPoly]:
    """Schur coefficients of a series homogeneous of degree n.

    Returns only the nonzero coefficients <f, s_lam>, as polynomials in t,
    in the order of `partitions_of(n)`.  Each term c t^k p_mu becomes entry k
    of an integer row over f's common denominator, packed into one int and
    held at the node mu as the Schur vector {(): row}.  A vector is keyed by
    bead masks with K = f.n_max beads, enough for any partition of at most
    n <= f.n_max, so () is the mask of K beads at 0..K-1; with one bead
    count for every degree of a series, the sweeps of all its degrees share
    `_add_strips` entries.  For j = n down to 1, every node nu of
    size j multiplies its vector by p_r, r = nu[-1], through `_add_strips`,
    and adds the result into the node nu[:-1]; the root () then holds
    p_mu = sum_lam chi^lam(mu) s_lam summed over f, and its masks are
    decoded to partitions.  Each output coefficient is its row entry over
    the denominator: an int where that divides exactly, so an integral
    table builds no Fraction.  A degree n past f.n_max, where f is unknown,
    raises ValueError.

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
    den, rows = f._known(n)
    l1 = sum(abs(v) for row in rows.values() for v in row.values())
    width = (isqrt(factorial(n)) * l1).bit_length() + 1
    # nodes[j]: partition nu of size j -> its Schur vector {bead mask: packed
    # t-row}; every partition met has at most n <= f.n_max rows (`_known`
    # raised past n_max), so f.n_max beads serve all
    nodes: list[dict[Partition, dict[int, int]]] = [{} for _ in range(n + 1)]
    empty = (1 << f.n_max) - 1  # f.n_max beads at 0..f.n_max-1
    for mu, row in rows.items():
        nodes[n][mu] = {empty: _pack(row, width)}
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
    # descending masks are reverse lexicographic partitions: partitions_of(n)'s order
    for mask in sorted(root, reverse=True):
        x = root[mask]
        if x:
            row = _unpack(x, width)
            out[_partition(mask)] = TPoly([ratio(row.get(k, 0), den) for k in range(max(row) + 1)])
    return out
