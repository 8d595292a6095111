"""Stirling numbers, partial Bell polynomials and the falling-factorial family.

These back the purely numerical recursions: the omega polynomials
omega_n(t) = t(t-1)...(t-n+2), signed Stirling numbers of the first kind as
their coefficients (shifted), Stirling numbers of the second kind as block
counts, and partial exponential Bell polynomials over an arbitrary sequence
of polynomial arguments.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import multiplicities, partitions_of
from .tpoly import TPoly, T_MINUS_ONE


@lru_cache(maxsize=None)
def _stirling_rows(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # row n of the signed first-kind and second-kind triangles
    if n == 0:
        return (1,), (1,)
    s_prev, S_prev = _stirling_rows(n - 1)
    s_row = [0] * (n + 1)
    S_row = [0] * (n + 1)
    for k in range(n + 1):
        s_row[k] = (s_prev[k - 1] if k >= 1 else 0) - (n - 1) * (s_prev[k] if k < n else 0)
        S_row[k] = (S_prev[k - 1] if k >= 1 else 0) + k * (S_prev[k] if k < n else 0)
    return tuple(s_row), tuple(S_row)


def stirling_first_signed(n: int, k: int) -> int:
    """s(n, k): coefficient of x^k in x(x-1)...(x-n+1)."""
    if not 0 <= k <= n:
        raise ValueError(f"indices out of range: ({n}, {k})")
    return _stirling_rows(n)[0][k]


def stirling_second(n: int, k: int) -> int:
    """S(n, k): set partitions of an n-set into k blocks."""
    if not 0 <= k <= n:
        raise ValueError(f"indices out of range: ({n}, {k})")
    return _stirling_rows(n)[1][k]


@lru_cache(maxsize=None)
def omega(n: int) -> TPoly:
    """omega_1 = 1 and omega_n = (t - n + 2) * omega_{n-1}, so degree n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return TPoly.const(1)
    return TPoly((2 - n, 1)) * omega(n - 1)


@lru_cache(maxsize=None)
def omega_shifted(n: int) -> TPoly:
    """omega_n evaluated at t - 1, i.e. (t-1)(t-2)...(t-n+1)."""
    return omega(n).compose(T_MINUS_ONE)


def bell_partial(n: int, k: int, xs) -> TPoly:
    """Partial exponential Bell polynomial Bell_{n,k}(x_1, ..., x_{n-k+1}).

    ``xs`` is a sequence of polynomials (or scalars), xs[0] playing x_1; at
    least n - k + 1 entries are required.
    """
    if not 1 <= k <= n:
        raise ValueError(f"indices out of range: ({n}, {k})")
    width = n - k + 1
    if len(xs) < width:
        raise ValueError(f"need {width} arguments, got {len(xs)}")
    xs = [x if isinstance(x, TPoly) else TPoly.const(x) for x in xs]
    total = TPoly()
    for parts in partitions_of(n):
        if len(parts) != k:
            continue
        # the multinomial n! / prod(i!^m * m!), checked exact
        den = 1
        term = TPoly.const(1)
        for i, m in multiplicities(parts).items():
            den *= factorial(i) ** m * factorial(m)
            term = term * xs[i - 1] ** m
        coeff, rem = divmod(factorial(n), den)
        if rem:
            raise ArithmeticError(f"{n}! is not a multiple of {den} for the parts {parts}")
        total = total + term * coeff
    return total


def stirling_bell_identity_check(n: int, k: int) -> bool:
    """t^k * Bell_{n,k}(omega_1(t-1), ..., omega_{n-k+1}(t-1)) == sum_j s(n,j) S(j,k) t^j."""
    if not 1 <= k <= n:
        raise ValueError(f"indices out of range: ({n}, {k})")
    lhs = bell_partial(n, k, [omega_shifted(i) for i in range(1, n - k + 2)])
    lhs = TPoly([0] * k + list(lhs.coeffs))
    rhs_coeffs = [0] * (n + 1)
    for j in range(k, n + 1):
        rhs_coeffs[j] = stirling_first_signed(n, j) * stirling_second(j, k)
    return lhs == TPoly(rhs_coeffs)


# the set-partition walk grows this many last units from each prefix partition
_TAIL = 3


def _grow(level: list, x) -> list:
    # every partition of the level, with the unit x added to each block in
    # turn (b + x) or opening a new last block (x,); units that come in
    # sorted order keep blocks sorted and ordered by their smallest element
    single = (x,)
    grown = [p[:i] + (b + x,) + p[i + 1 :] for p in level for i, b in enumerate(p)]
    grown += [p + single for p in level]
    return grown


def _walk(units):
    # the prefix level is held as a list, the tail grown one prefix at a time
    split = max(len(units) - _TAIL, 0)
    prefixes = [()]
    for x in units[:split]:
        prefixes = _grow(prefixes, x)
    tail = units[split:]
    for prefix in prefixes:
        level = [prefix]
        for x in tail:
            level = _grow(level, x)
        yield from level


def set_partitions(elements):
    """All set partitions of ``elements`` (each a tuple of disjoint tuples).

    Blocks and the elements inside them come out sorted, blocks ordered by
    their smallest element, and each partition exactly once.  The walk goes
    level by level: the partitions of the first j sorted elements grow into
    those of the first j + 1, the new element joining each block in turn or
    opening a new block.  Only the partitions of all but the last three
    elements are held as a list (Bell(9) = 21,147 of them for 12 elements);
    the last three are grown from one of those prefixes at a time, so the
    whole last level is never held at once.

    This is the one set-partition walk of the package, and
    ``set_partition_sizes`` runs it on block sizes alone:
    ``numeric.hnum_lattice`` tallies those sizes by block shape,
    ``leveltrees.enumerate_level_trees`` grafts the smaller trees onto the
    partitions, and ``leveltrees.chain_counts_by_length`` lists the
    partition lattice whose chains the census counts.  The last two rely on
    the block order.
    """
    yield from _walk([(e,) for e in sorted(elements)])


def set_partition_sizes(n: int):
    """The block sizes of every set partition of an n-set, one tuple each.

    The same walk as ``set_partitions`` with each element counted as 1, so
    the k-th tuple lists the block lengths of the k-th partition that
    ``set_partitions(range(n))`` yields, in block order; no element tuple
    is built."""
    yield from _walk((1,) * n)
