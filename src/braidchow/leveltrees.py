"""Rooted marked stable trees with levels, and the stratum-sum oracle.

A level tree on markings {0, ..., n} is a rooted tree (the root carries
marking 0) with a level for every vertex: levels are onto {0, ..., k}, they
strictly increase away from the root, and every vertex v satisfies the
stability bound val(v) + #markings(v) >= 3.

Pruning deletes all vertices of the top level and turns each into a marking
on its parent, relabelling the new markings in the lexicographic order of the
label sets they stand for.  It is a bijection: a tree with one more level is
a tree on m markings together with a set partition of {1, ..., n} into m
blocks, 2 <= m < n, marking j growing into block j (a plain marking for a
single label, a new top-level vertex for a larger block).  Every isomorphism
class arises exactly once because fully-labeled stable trees are rigid.

The stratum-sum oracle needs from each tree only its number of levels, its
vertex degrees and its excess, so it counts trees through that bijection
(``_tree_tally``) without building any.  ``enumerate_level_trees`` builds
every tree by running pruning backwards: it grafts each smaller tree onto
each set partition from ``combinat.set_partitions``, whose blocks come in
the same order as pruning's relabelling, so the walk and ``unprune`` share
one graft step.  It is kept as the reference for the count and for the
pruning round-trip.  The census cross-check counts chains in the proper part
of the set-partition lattice, a separate computation with no trees in it: it
lists the set partitions once and finds the partitions above each one by
merging its blocks.

Each tree contributes a product over levels to the point count of the whole
space: a vertex of degree m contributes the open-stratum count
(q-2)(q-3)...(q-m+2) times (q-1), and each level divides once by (q-1) for
the simultaneous rescaling.  Summing over all trees gives a brute-force
oracle for the rank polynomials.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

from .combinat import set_partitions
from .partitions import partitions_of
from .tpoly import TPoly

# A vertex is (level, markings, children); markings is a sorted tuple of
# labels, children a sorted tuple of vertices.  With integer labels the
# natural tuple order is a total order on vertices, so sorting gives every
# tree one canonical form.
Node = tuple


def _make_node(level, marks, children) -> Node:
    return (level, tuple(sorted(marks)), tuple(sorted(children)))


def _graft(node: Node, blocks, new_level: int) -> Node:
    # marking j >= 1 becomes blocks[j - 1]: a plain marking when the block has
    # one label, otherwise a new vertex at new_level carrying the block
    level, marks, children = node
    kept = []
    new_children = [_graft(c, blocks, new_level) for c in children]
    for m in marks:
        block = blocks[m - 1] if m else (0,)
        if len(block) == 1:
            kept.append(block[0])
        else:
            new_children.append(_make_node(new_level, block, ()))
    return _make_node(level, kept, new_children)


def _walk(n: int, smaller: dict):
    """Yield (root, number of levels) for every level tree on {0, ..., n}.

    ``smaller`` maps m to the list of trees on m markings, each filled once."""
    yield _make_node(0, range(n + 1), ()), 1
    for blocks in set_partitions(range(1, n + 1)):
        m = len(blocks)
        if not 2 <= m < n:
            continue
        if m not in smaller:
            smaller[m] = list(_walk(m, smaller))
        for node, levels in smaller[m]:
            yield _graft(node, blocks, levels), levels + 1


class LevelTree:
    """Canonical immutable level tree; validated on construction.  Equality,
    hashing and repr go by the root node alone."""

    __slots__ = ("root",)

    def __init__(self, root: Node):
        object.__setattr__(self, "root", root)
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.root == other.root

    def __hash__(self):
        return hash((self.root,))

    def __repr__(self):
        return f"LevelTree(root={self.root!r})"

    # -- structure ----------------------------------------------------------

    def vertices(self):
        """Iterate (level, markings, number_of_children) over all vertices."""
        stack = [self.root]
        while stack:
            level, marks, children = stack.pop()
            yield level, marks, len(children)
            stack.extend(children)

    @property
    def n(self) -> int:
        return sum(len(marks) for _l, marks, _c in self.vertices()) - 1

    @property
    def length(self) -> int:
        """Number of levels."""
        return 1 + max(level for level, _m, _c in self.vertices())

    def degrees(self) -> list[int]:
        """val(v) + #markings(v) for every vertex."""
        out = []
        stack = [(self.root, 0)]
        while stack:
            (level, marks, children), parent_edges = stack.pop()
            out.append(parent_edges + len(children) + len(marks))
            stack.extend((c, 1) for c in children)
        return out

    def level_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for level, _m, _c in self.vertices():
            sizes[level] = sizes.get(level, 0) + 1
        return sizes

    def validate(self):
        """Check the rules of a level tree in one walk.  The walk only
        collects; the rules are then tested in a fixed order, so a tree that
        breaks several gets the message of the first."""
        root = self.root
        levels: dict[int, int] = {}
        unstable = not_increasing = False
        stack = [root]
        while stack:
            node = stack.pop()
            level, marks, children = node
            levels[level] = levels.get(level, 0) + 1
            # val(v) + #markings(v): every vertex but the root has a parent edge
            if len(children) + len(marks) + (node is not root) < 3:
                unstable = True
            for child in children:
                if child[0] <= level:
                    not_increasing = True
            stack.extend(children)
        if sorted(levels) != list(range(max(levels) + 1)):
            raise ValueError("level map is not onto an initial segment")
        if levels[0] != 1:
            raise ValueError("root must be the unique level-0 vertex")
        if root[0] != 0:
            raise ValueError("root must sit at level 0")
        if 0 not in root[1]:
            raise ValueError("marking 0 must sit at the root")
        if unstable:
            raise ValueError("unstable vertex (degree < 3)")
        if not_increasing:
            raise ValueError("levels must strictly increase away from the root")

    # -- pruning -------------------------------------------------------------

    def prune(self) -> tuple["LevelTree", tuple[tuple[int, ...], ...]]:
        """Delete the top level, turning each deleted vertex into a marking.

        Returns the pruned tree on relabeled markings {0, ..., m} together
        with the label assignment: entry j - 1 is the tuple of original
        markings that new marking j stands for (length 1 = a kept marking,
        length >= 2 = a deleted vertex's block).  The new labels follow the
        lexicographic order of those tuples.
        """
        top = self.length - 1
        if top == 0:
            raise ValueError("cannot prune a single-level tree")
        subsets: list[tuple[int, ...]] = []

        def collect(node: Node):
            _level, marks, children = node
            for m in marks:
                if m != 0:
                    subsets.append((m,))
            for child in children:
                if child[0] == top:
                    subsets.append(tuple(sorted(child[1])))
                else:
                    collect(child)

        collect(self.root)
        order = sorted(subsets)
        relabel = {subset: i + 1 for i, subset in enumerate(order)}

        def rebuild(node: Node) -> Node:
            level, marks, children = node
            new_marks = [0] if 0 in marks else []
            new_marks += [relabel[(m,)] for m in marks if m != 0]
            new_children = []
            for child in children:
                if child[0] == top:
                    new_marks.append(relabel[tuple(sorted(child[1]))])
                else:
                    new_children.append(rebuild(child))
            return _make_node(level, new_marks, new_children)

        return LevelTree(rebuild(self.root)), tuple(order)


def unprune(tree: LevelTree, assignment: tuple[tuple[int, ...], ...]) -> LevelTree:
    """Inverse of prune: marking j becomes assignment[j-1], as a plain marking
    when that tuple has length 1 and as a new top-level vertex otherwise."""
    return LevelTree(_graft(tree.root, assignment, tree.length))


def enumerate_level_trees(n: int):
    """Every level tree on markings {0, ..., n}, streamed, each class once.

    Pruning inverted: the single-level tree first, then, for each set
    partition of {1, ..., n} into m blocks with 2 <= m < n, every tree on m
    markings with marking j grafted onto block j one level up.  The trees on
    each smaller m are listed once per call."""
    if n < 2:
        raise ValueError("level trees need at least two non-root markings")
    for node, _levels in _walk(n, {}):
        yield LevelTree(node)


# -- stratum point counts -----------------------------------------------------


@lru_cache(maxsize=None)
def open_part_count(deg: int) -> TPoly:
    """Count for distinct points on a line minus two: (q-2)(q-3)...(q-deg+2)."""
    poly = TPoly.const(1)
    for i in range(2, deg - 1):
        poly = poly * TPoly((-i, 1))
    return poly


def stratum_epoly(tree: LevelTree) -> TPoly:
    """Per-tree point count: product over levels of (q-1)^(vertices-1) times
    the open-part counts of the vertex degrees."""
    poly = TPoly.const(1)
    for deg in tree.degrees():
        poly = poly * open_part_count(deg)
    excess = sum(size - 1 for size in tree.level_sizes().values())
    return poly * TPoly((-1, 1)) ** excess


@lru_cache(maxsize=None)
def _tree_tally(n: int) -> tuple[tuple[tuple[int, tuple[int, ...], int], int], ...]:
    """Every level tree on {0, ..., n}, tallied as (number of levels, sorted
    vertex degrees, excess) -> number of trees, where excess = sum over
    levels of (vertices - 1).

    Counted through the pruning bijection, with no tree built: besides the
    single-level tree, every tree is a tree on m markings grafted one level
    up onto a set partition of {1, ..., n} into m blocks, 2 <= m < n.  The
    pairs are grouped by the partition's shape: n - s singleton blocks and
    non-singleton blocks of shape beta (parts >= 2, b = len(beta)) on the
    other s labels, so m = n - s + b.  There are C(n, s) choices of those s
    labels and s! / (prod beta_i! * prod m_j!) set partitions of them of
    shape beta, m_j the multiplicities of the parts.  A marking grafted onto
    a singleton stays a marking and one grafted onto a block becomes an
    edge, so neither changes its parent's degree; each new top vertex has
    degree beta_i + 1.  ``enumerate_level_trees`` walks these same pairs one
    by one, with labels, and is the reference for this count."""
    if n < 2:
        return ()
    tally: Counter = Counter({(1, (n + 1,), 0): 1})
    for shed in range(2, n + 1):
        for beta in partitions_of(shed):
            if beta[-1] < 2:
                continue
            symmetry = prod(map(factorial, beta)) * prod(map(factorial, Counter(beta).values()))
            ways = comb(n, shed) * factorial(shed) // symmetry
            tops = tuple(part + 1 for part in beta)
            for (levels, degs, excess), count in _tree_tally(n - shed + len(beta)):
                key = (levels + 1, tuple(sorted(degs + tops)), excess + len(beta) - 1)
                tally[key] += count * ways
    return tuple(tally.items())


def epoly_Bn(n: int) -> TPoly:
    """Sum of stratum counts over every level tree: the brute-force oracle
    for the degree-n rank polynomial.  Trees are grouped by their degree
    multiset before the polynomial work; grouping changes nothing but time."""
    total = TPoly()
    for (_length, degs, excess), count in _tree_tally(n):
        poly = TPoly.const(count) * TPoly((-1, 1)) ** excess
        for deg in degs:
            poly = poly * open_part_count(deg)
        total = total + poly
    return total


def level_tree_census(n: int) -> dict[int, int]:
    """Number of level trees by number of levels (a new dict on every call)."""
    counts: Counter = Counter()
    for (length, _degs, _excess), count in _tree_tally(n):
        counts[length] += count
    return dict(sorted(counts.items()))


# -- partition-lattice chain counts (independent census oracle) ---------------


def _block_labels(blocks, size: int) -> tuple[int, ...]:
    # entry x is the index of the block holding x: the canonical form of a set
    # partition of range(size), since set_partitions orders blocks by their
    # smallest element
    labels = [0] * size
    for i, block in enumerate(blocks):
        for x in block:
            labels[x] = i
    return tuple(labels)


def chain_counts_by_length(n: int) -> dict[int, int]:
    """Chains in the proper part of the partition lattice, by chain size
    (size 0 = the empty chain), counted by powers of the strict zeta matrix.

    The partitions strictly coarser than one with k blocks are its merges,
    the set partitions of its k blocks into 2 to k - 1 groups.  The merges
    are listed once per k; a merge numbers its groups by their first block,
    so relabelling each element's block by its group gives the coarser
    partition's canonical labels directly, and a dict index finds it."""
    labels = [_block_labels(p, n) for p in set_partitions(range(n)) if 1 < len(p) < n]
    index = {lab: i for i, lab in enumerate(labels)}
    merges = {
        k: [_block_labels(m, k) for m in set_partitions(range(k)) if 1 < len(m) < k]
        for k in range(2, n)
    }
    above = [
        [index[tuple(map(merge.__getitem__, lab))] for merge in merges[max(lab) + 1]]
        for lab in labels
    ]
    counts = {0: 1}
    vec = [1] * len(labels)
    length = 1
    while any(vec):
        counts[length] = sum(vec)
        nxt = [0] * len(labels)
        for ways, coarser in zip(vec, above):
            for j in coarser:
                nxt[j] += ways
        vec = nxt
        length += 1
    return counts


def chain_count(n: int) -> int:
    """Total number of chains (empty chain included) in the proper part of
    the partition lattice; equals the number of level trees."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return sum(chain_counts_by_length(n).values())
