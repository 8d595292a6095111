"""The purely numerical routes to the rank polynomials H_n^num.

Each route is independent of the equivariant solver and of every other
route: the Stirling-number recursion, the partial Bell polynomial
recursion, the set-partition-lattice recursion and the Euler-characteristic
recursion for H_n^num(1).  They need only ``combinat`` and ``tpoly``, so a
``numeric`` command that asks for none of the solver's routes compiles no
plethysm engine.  The ``combinat`` names are bound here at import time, so
rebinding one of them in ``combinat`` afterwards does not reach these
routes.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from .combinat import (
    bell_partial,
    omega_shifted,
    set_partition_sizes,
    stirling_first_signed,
    stirling_second,
)
from .tpoly import TPoly, T_MINUS_ONE


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
