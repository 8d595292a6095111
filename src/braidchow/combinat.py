"""Stirling numbers, partial Bell polynomials and the falling-factorial family.

These back the purely numerical recursions: the omega polynomials
omega_n(t) = t(t-1)...(t-n+2), signed Stirling numbers of the first kind as
their coefficients (shifted), Stirling numbers of the second kind as block
counts, and partial exponential Bell polynomials over an arbitrary sequence
of polynomial arguments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

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


def _length_k_partitions_by_multiplicity(n: int, k: int, max_part: int):
    # multiplicity vectors (m_1, ..., m_max_part) with sum i*m_i = n, sum m_i = k,
    # in increasing order of largest part used
    def gen(i, remaining, length_left, mults):
        if i > max_part:
            if remaining == 0 and length_left == 0:
                yield tuple(mults)
            return
        top = min(length_left, remaining // i)
        for m in range(top + 1):
            mults.append(m)
            yield from gen(i + 1, remaining - i * m, length_left - m, mults)
            mults.pop()

    yield from gen(1, n, k, [])


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
    for mults in _length_k_partitions_by_multiplicity(n, k, width):
        coeff = Fraction(factorial(n))
        term = TPoly.const(1)
        for i, m in enumerate(mults, start=1):
            if m:
                coeff /= Fraction(factorial(i) ** m * factorial(m))
                term = term * xs[i - 1] ** m
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


def set_partitions(elements, min_block: int = 1):
    """All set partitions of ``elements`` (each a tuple of disjoint tuples).

    Blocks and the elements inside them come out sorted; ``min_block``
    restricts the smallest allowed block size.  This is the one set-partition
    walk of the package: ``solver.hnum_lattice`` tallies its partitions by
    block shape, and ``leveltrees`` takes from it both the blocks a level tree
    sheds into its top level (``min_block=2``) and the partition lattice whose
    chains the census counts.
    """
    elements = sorted(elements)

    def gen(remaining):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        # the block containing the smallest element determines the recursion
        for extra in range(min_block - 1, len(rest) + 1):
            for chosen in combinations(rest, extra):
                chosen_set = set(chosen)
                left = [x for x in rest if x not in chosen_set]
                if 0 < len(left) < min_block:
                    continue
                block = (first, *chosen)
                for others in gen(left):
                    yield (block, *others)

    yield from gen(elements)
