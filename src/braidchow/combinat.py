"""The set-partition walk of the package: ``set_partitions`` and, on block
sizes alone, ``set_partition_sizes``.
"""

from __future__ import annotations

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
