import hashlib
from collections import Counter

import pytest

from braidchow import leveltrees
from braidchow.leveltrees import (
    LevelTree,
    chain_count,
    chain_counts_by_length,
    enumerate_level_trees,
    epoly_Bn,
    level_tree_census,
    open_part_count,
    stratum_epoly,
    unprune,
    _make_node,
)
from braidchow.numeric import hnum_stirling
from braidchow.tpoly import TPoly


def tree(*args):
    return LevelTree(_make_node(*args))


def size(t):
    # n of a tree on the markings {0, ..., n}
    return sum(len(marks) for _l, marks, _c in t.vertices()) - 1


def test_single_tree_for_n2():
    trees = list(enumerate_level_trees(2))
    assert len(trees) == 1
    assert trees[0].length == 1
    assert size(trees[0]) == 2


def test_n3_trees():
    trees = list(enumerate_level_trees(3))
    assert len(trees) == 4
    by_length = {}
    for t in trees:
        by_length.setdefault(t.length, []).append(t)
    assert len(by_length[1]) == 1
    assert len(by_length[2]) == 3
    # two-level trees have shape root{0,a} -> child{b,c}
    for t in by_length[2]:
        root_level, root_marks, root_children = t.root
        assert len(root_marks) == 2 and 0 in root_marks
        assert len(root_children) == 1
        assert len(root_children[0][1]) == 2


def test_n4_census():
    assert level_tree_census(4) == {1: 1, 2: 13, 3: 18}


def test_no_duplicates():
    for n in (3, 4, 5):
        trees = list(enumerate_level_trees(n))
        assert len(set(trees)) == len(trees)


def test_level_trees_compare_and_hash_by_their_root():
    a = tree(0, (0, 2), [_make_node(1, (1, 3), ())])
    b = tree(0, (2, 0), [_make_node(1, (3, 1), ())])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != tree(0, (0, 1, 2, 3), ()) and a != a.root


# sha256 of repr(sorted(t.root for t in enumerate_level_trees(n))): the tree
# set of the labelled walk, whatever order it yields the trees in.  A wrong
# labelling with the right shape statistics passes the tally test, not this.
TREE_SET_SHA256 = {
    2: (1, "ee8ae6403cc934fac685b45b108bb2dfabffb56842c24e3460fbfde820618753"),
    3: (4, "4e8002b8ebaeb3322e39f3574ed0ccbc0450cc32ed0b80fe1d8d9967094c7831"),
    4: (32, "3b9ca28f2c2f46bd9101c82218c7a1dda61413f4a06eac164d611cbc7b6d1182"),
    5: (436, "6c7e29fb6a70d36c7d29e4da15f8e60cdb161b02284414b4566120cd4e9a876e"),
    6: (9012, "f77340740fe595cdc29fe67e8ba468de07a6c03667620902fc7c7b59e8d104fb"),
}


@pytest.mark.parametrize("n", sorted(TREE_SET_SHA256))
def test_walk_yields_the_pinned_tree_set(n):
    roots = sorted(t.root for t in enumerate_level_trees(n))
    digest = hashlib.sha256(repr(roots).encode()).hexdigest()
    assert (len(roots), digest) == TREE_SET_SHA256[n]


def test_all_markings_present():
    for n in (3, 4, 5):
        for t in enumerate_level_trees(n):
            marks = sorted(m for _l, ms, _c in t.vertices() for m in ms)
            assert marks == list(range(n + 1))


def test_census_and_epoly_share_one_enumeration(monkeypatch):
    """Both read the one counted tally; neither walks the labelled trees."""
    calls = []
    original = leveltrees.enumerate_level_trees

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(leveltrees, "enumerate_level_trees", counting)
    leveltrees._tree_tally.cache_clear()
    try:
        census = level_tree_census(5)
        poly = epoly_Bn(5)
    finally:
        leveltrees._tree_tally.cache_clear()
    assert calls == []
    assert census == {1: 1, 2: 50, 3: 205, 4: 180}
    assert poly == TPoly((1, 41, 41, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counted_tally_equals_the_walked_one(n):
    walked = Counter()
    for t in enumerate_level_trees(n):
        sizes = t.level_sizes()
        excess = sum(size - 1 for size in sizes.values())
        walked[(len(sizes), tuple(sorted(t.degrees())), excess)] += 1
    assert dict(leveltrees._tree_tally(n)) == walked


def test_census_at_7_and_8():
    # n = 8 is chain_counts_by_length(8) shifted by one level
    assert level_tree_census(7) == {1: 1, 2: 875, 3: 16674, 4: 74165, 5: 114345, 6: 56700}
    assert level_tree_census(8) == {
        1: 1, 2: 4138, 3: 155477, 4: 1208830, 5: 3394790, 6: 3919860, 7: 1587600
    }


def test_census_result_is_not_shared():
    first = level_tree_census(4)
    first[1] = 99
    first[7] = 1
    assert level_tree_census(4) == {1: 1, 2: 13, 3: 18}


def test_max_levels_is_n_minus_1():
    for n in (3, 4, 5, 6):
        lengths = set(level_tree_census(n))
        assert max(lengths) == n - 1
        assert min(lengths) == 1


def test_validation_rejects_bad_trees():
    with pytest.raises(ValueError):  # unstable root (2 markings, no children)
        tree(0, (0, 1), ())
    with pytest.raises(ValueError):  # level jump not onto {0,1}
        tree(0, (0, 1), (_make_node(2, (2, 3), ()),))
    with pytest.raises(ValueError):  # non-root vertex at level 0
        tree(0, (0, 1), (_make_node(0, (2, 3), ()),))
    with pytest.raises(ValueError):  # marking 0 absent from the root
        tree(0, (1, 2), (_make_node(1, (0, 3), ()),))


@pytest.mark.parametrize(
    "root, message",
    [
        ((0, (0, 1), ((2, (2, 3), ()),)), "level map is not onto an initial segment"),
        ((0, (0, 1), ((0, (2, 3), ()),)), "root must be the unique level-0 vertex"),
        ((1, (0, 1), ((0, (2, 3), ()),)), "root must sit at level 0"),
        ((0, (1, 2), ((1, (0, 3), ()),)), "marking 0 must sit at the root"),
        ((0, (0, 1), ()), r"unstable vertex \(degree < 3\)"),
        (
            (0, (0, 1), ((1, (2,), ((1, (3, 4), ()),)),)),
            "levels must strictly increase away from the root",
        ),
    ],
)
def test_validation_names_the_broken_rule(root, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LevelTree(root)


def test_enumerate_rejects_small_n():
    with pytest.raises(ValueError):
        next(enumerate_level_trees(1))


# -- chain-count oracle ---------------------------------------------------------


def test_chain_counts_small():
    assert chain_count(2) == 1
    assert chain_count(3) == 4
    assert chain_count(4) == 32
    assert chain_counts_by_length(4) == {0: 1, 1: 13, 2: 18}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_census_equals_chain_counts(n):
    census = level_tree_census(n)
    chains = chain_counts_by_length(n)
    assert {length - 1: c for length, c in census.items()} == chains
    assert sum(census.values()) == chain_count(n)


# -- pruning ----------------------------------------------------------------------


def test_prune_drops_one_level():
    for t in enumerate_level_trees(4):
        if t.length == 1:
            with pytest.raises(ValueError):
                t.prune()
            continue
        pruned, assignment = t.prune()
        assert pruned.length == t.length - 1
        # assignment covers {1..n} by disjoint nonempty subsets, lex sorted
        flat = sorted(x for subset in assignment for x in subset)
        assert flat == list(range(1, size(t) + 1))
        assert list(assignment) == sorted(assignment)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_stored_length_counts_the_levels(n):
    # the validating walk stores the number of levels; recount it from the
    # vertices, for every tree and for every pruned tree
    for t in enumerate_level_trees(n):
        trees = [t] if t.length == 1 else [t, t.prune()[0]]
        for tree in trees:
            assert tree.length == 1 + max(level for level, _m, _c in tree.vertices())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prune_unprune_roundtrip(n):
    for t in enumerate_level_trees(n):
        if t.length == 1:
            continue
        pruned, assignment = t.prune()
        assert unprune(pruned, assignment) == t


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pruned_trees_are_generated(n):
    # the pruning of any generated tree appears in the enumeration of its size
    pools = {}
    for t in enumerate_level_trees(n):
        if t.length == 1:
            continue
        pruned, _assignment = t.prune()
        m = size(pruned)
        if m not in pools:
            pools[m] = set(enumerate_level_trees(m))
        assert pruned in pools[m]


# -- stratum polynomials ------------------------------------------------------------


def test_open_part_count():
    q = TPoly((0, 1))
    assert open_part_count(3) == TPoly.const(1)
    assert open_part_count(4) == q - 2
    assert open_part_count(5) == (q - 2) * (q - 3)


def test_stratum_epoly_one_level():
    t = tree(0, (0, 1, 2, 3, 4), ())
    assert stratum_epoly(t) == (TPoly((0, 1)) - 2) * (TPoly((0, 1)) - 3)


def test_stratum_epoly_chain():
    t = tree(0, (0, 1, 2), (_make_node(1, (3, 4), ()),))
    assert stratum_epoly(t) == TPoly((-2, 1))


def test_stratum_epoly_two_children_same_level():
    t = tree(0, (0,), (_make_node(1, (1, 2), ()), _make_node(1, (3, 4), ())))
    assert stratum_epoly(t) == TPoly((-1, 1))


def test_epoly_small():
    assert epoly_Bn(3) == TPoly((1, 1))
    assert epoly_Bn(4) == TPoly((1, 8, 1))
    assert epoly_Bn(5) == TPoly((1, 41, 41, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_epoly_matches_recursions(n):
    assert epoly_Bn(n) == hnum_stirling(n)[n]


def test_epoly_monic_palindromic():
    for n in (3, 4, 5, 6):
        p = epoly_Bn(n)
        assert p.degree == n - 2
        assert p.is_monic()
        assert p.is_palindromic()
