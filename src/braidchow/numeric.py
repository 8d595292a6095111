"""The purely numerical routes to the rank polynomials H_n^num.

Each route is independent of the equivariant solver and of every other
route: the Stirling-number recursion, the partial Bell polynomial
recursion, the set-partition-lattice recursion and the Euler-characteristic
recursion for H_n^num(1).  The Stirling numbers, partial Bell polynomials
and omega polynomials omega_n(t) = t(t-1)...(t-n+2) they recur over live
here too.  They need only ``combinat`` (the set-partition walk),
``partitions`` and ``tpoly``, so a ``numeric`` command that asks for none
of the solver's routes compiles no plethysm engine.  The routes look the
family up in this module's namespace at each call, so rebinding
``numeric.stirling_first_signed`` and the like reaches them.  The one
exception is the Bell table: ``bell_omega`` is cached per (n, k), so
rebinding ``bell_partial`` or ``omega_shifted`` after its first call at
some (n, k) does not reach that entry, just as ``omega_shifted``'s own
cache keeps the values it built before ``omega`` was rebound.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .combinat import set_partition_sizes
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


@lru_cache(maxsize=None)
def bell_omega(n: int, k: int) -> TPoly:
    """Bell_{n,k}(omega_1(t-1), ..., omega_{n-k+1}(t-1)), built once per (n, k):
    the Stirling-Bell identity, the Bell route and the t -> 1 limit check
    all read this one table."""
    return bell_partial(n, k, [omega_shifted(i) for i in range(1, n - k + 2)])


def stirling_bell_identity_check(n: int, k: int) -> bool:
    """t^k * Bell_{n,k}(omega_1(t-1), ..., omega_{n-k+1}(t-1)) == sum_j s(n,j) S(j,k) t^j."""
    if not 1 <= k <= n:
        raise ValueError(f"indices out of range: ({n}, {k})")
    lhs = TPoly([0] * k + list(bell_omega(n, k).coeffs))
    rhs_coeffs = [0] * (n + 1)
    for j in range(k, n + 1):
        rhs_coeffs[j] = stirling_first_signed(n, j) * stirling_second(j, k)
    return lhs == TPoly(rhs_coeffs)


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
            rhs = rhs + hnum[k] * bell_omega(n, k)
        hnum[n] = rhs.divexact(T_MINUS_ONE)
    return hnum


def hnum_lattice(n_max: int) -> dict[int, TPoly]:
    """Recursion by brute-force enumeration of set partitions of {1..n}.

    Deliberately independent of the Bell-polynomial closed form: every set
    partition contributes the product of omega_{block size}(t-1) over its
    blocks.  The walk visits every partition, and the tally adds no Python
    step per partition: ``set_partition_sizes`` yields each partition's
    block sizes in block order, a ``Counter`` counts them, and the few
    distinct tuples are then folded into sorted shapes, so the polynomial
    product is formed once per shape rather than once per partition."""
    if n_max > 12:
        raise ValueError("set-partition enumeration is capped at n_max = 12")
    hnum: dict[int, TPoly] = {1: TPoly.const(1)}
    for n in range(2, n_max + 1):
        shapes: Counter = Counter()
        for sizes, count in Counter(set_partition_sizes(n)).items():
            shapes[tuple(sorted(sizes))] += count
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
