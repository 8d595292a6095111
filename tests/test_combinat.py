import tracemalloc

import pytest

from braidchow.combinat import set_partitions


def restricted_growth_partitions(elements):
    """Set partitions of sorted ``elements`` from restricted growth strings:
    a_0 = 0 and a_i <= 1 + max(a_0, ..., a_{i-1}), element i going to block a_i."""
    elements = sorted(elements)
    strings = [()]
    for _ in elements:
        strings = [s + (a,) for s in strings for a in range(max(s, default=-1) + 2)]
    found = set()
    for s in strings:
        blocks = [[] for _ in range(max(s, default=-1) + 1)]
        for x, a in zip(elements, s):
            blocks[a].append(x)
        found.add(tuple(map(tuple, blocks)))
    return found


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]  # OEIS A000110


@pytest.mark.parametrize("n", range(0, 10))
def test_set_partitions_are_partitions(n):
    elements = list(range(n))
    walked = list(set_partitions(elements))
    assert len(walked) == BELL[n]
    assert len(set(walked)) == len(walked)  # no partition twice
    for blocks in walked:
        assert sorted(x for b in blocks for x in b) == elements
        # the block order that the level-tree walk and the chain count rely on:
        # sorted blocks, ordered by their smallest element
        assert all(list(b) == sorted(b) for b in blocks)
        assert list(blocks) == sorted(blocks)
    assert set(walked) == restricted_growth_partitions(elements)


def test_set_partitions_sort_unsorted_input():
    expected = restricted_growth_partitions([2, 5, 7, 9])
    assert set(set_partitions([2, 5, 7, 9])) == expected
    for elements in ([5, 2, 9, 7], (x for x in (9, 7, 5, 2))):
        walked = list(set_partitions(elements))
        assert len(walked) == len(expected) == 15
        assert set(walked) == expected


def test_set_partitions_hold_only_a_prefix_level():
    # the first partition of 12 elements needs only the Bell(9) = 21,147
    # partitions of the first nine; the whole level of 11 elements
    # (Bell(11) = 678,570 partitions) takes about 100 MB
    tracemalloc.start()
    try:
        next(set_partitions(range(12)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
