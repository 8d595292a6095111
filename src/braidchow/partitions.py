"""Integer partitions and cycle types.

A partition is a plain tuple of weakly decreasing positive ints, e.g.
``(3, 1, 1)``.  The same tuples serve as cycle types of permutations.  The
empty partition is ``()``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True iff ``parts`` is a weakly decreasing tuple of positive ints (not
    bools)."""
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: Partition) -> Partition:
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []

    def gen(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            gen(remaining - part, part, prefix)
            prefix.pop()

    gen(n, n, [])
    return tuple(out)


def multiplicities(parts: Partition) -> dict[int, int]:
    """Map part size d -> number of parts equal to d."""
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return mult


def z_lambda(parts: Partition) -> int:
    """Centralizer order of a permutation of this cycle type: prod d^m_d * m_d!."""
    z = 1
    for d, m in multiplicities(parts).items():
        z *= d**m * factorial(m)
    return z


def merge(a: Partition, b: Partition) -> Partition:
    """Concatenate two partitions and re-sort (the product rule for p-monomials)."""
    return tuple(sorted(a + b, reverse=True))
