from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from braidchow.characters import (
    _add_strips,
    _partition,
    _strips,
    character_table,
    character_value,
    schur_expand,
)
from braidchow.partitions import partitions_of, z_lambda
from braidchow.solver import solved_series
from braidchow.symseries import SymSeries
from braidchow.tpoly import TPoly

from .strategies import fractions


def hook_length_dimension(lam):
    """Independent dimension oracle via hooks."""
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])] if lam else []
    dim = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= (row - j) + (conj[j] - i) - 1
    return dim


def test_s2_table():
    t = character_table(2)
    assert t[(2,), (1, 1)] == 1 and t[(2,), (2,)] == 1
    assert t[(1, 1), (1, 1)] == 1 and t[(1, 1), (2,)] == -1


def test_s3_table():
    t = character_table(3)
    known = {
        ((3,), (1, 1, 1)): 1,
        ((3,), (2, 1)): 1,
        ((3,), (3,)): 1,
        ((2, 1), (1, 1, 1)): 2,
        ((2, 1), (2, 1)): 0,
        ((2, 1), (3,)): -1,
        ((1, 1, 1), (1, 1, 1)): 1,
        ((1, 1, 1), (2, 1)): -1,
        ((1, 1, 1), (3,)): 1,
    }
    for (lam, mu), value in known.items():
        assert t[lam, mu] == value


def test_trivial_row_is_ones():
    for n in range(1, 8):
        t = character_table(n)
        assert all(t[(n,), mu] == 1 for mu in partitions_of(n))


def test_sign_row():
    # chi^(1^n)(mu) = (-1)^(n - number of parts)
    for n in range(1, 8):
        t = character_table(n)
        for mu in partitions_of(n):
            assert t[(1,) * n, mu] == (-1) ** (n - len(mu))


@pytest.mark.parametrize("n", range(1, 9))
def test_dimensions_match_hook_lengths(n):
    t = character_table(n)
    for lam in partitions_of(n):
        assert t[lam, (1,) * n] == hook_length_dimension(lam)


@pytest.mark.parametrize("n", range(1, 9))
def test_column_orthogonality(n):
    t = character_table(n)
    for mu in partitions_of(n):
        for nu in partitions_of(n):
            total = sum(t[lam, mu] * t[lam, nu] for lam in partitions_of(n))
            assert total == (z_lambda(mu) if mu == nu else 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_sum_of_squared_dimensions(n):
    t = character_table(n)
    assert sum(t[lam, (1,) * n] ** 2 for lam in partitions_of(n)) == factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_table_reads_character_value(n):
    t = character_table(n)
    assert len(t) == len(partitions_of(n)) ** 2
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert t[lam, mu] == character_value(lam, mu)
    # one read-only table, shared by every caller
    assert character_table(n) is t
    with pytest.raises(TypeError):
        t[(n,), (n,)] = 0
    assert t[(n,), (n,)] == 1


def test_character_value_standalone():
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((4, 1), (2, 2, 1)) == 0
    # on an n-cycle only hooks survive: chi^(n-k, 1^k) = (-1)^k
    for n in range(2, 8):
        for lam in partitions_of(n):
            is_hook = len(lam) == 1 or all(p == 1 for p in lam[1:])
            expected = (-1) ** (len(lam) - 1) if is_hook else 0
            assert character_value(lam, (n,)) == expected


def test_character_value_rejects_partitions_of_different_sizes():
    for lam, mu in [((3,), (1,)), ((2, 1), (2,)), ((), (1,))]:
        with pytest.raises(ValueError) as err:
            character_value(lam, mu)
        assert str(lam) in str(err.value) and str(mu) in str(err.value)


def bead_mask(lam, beads):
    """The bead mask of lam with beads >= len(lam) beads: bit lam_i - i + beads
    for i = 1..beads, lam padded with zero rows."""
    padded = lam + (0,) * (beads - len(lam))
    return sum(1 << (p - i + beads) for i, p in enumerate(padded, start=1))


def test_bead_masks_decode_to_their_partition():
    assert bead_mask((), 4) == 0b1111 and bead_mask((3, 1), 2) == 0b10010
    for m in range(13):
        for lam in partitions_of(m):
            for beads in (len(lam), len(lam) + 1, m + 3):
                assert _partition(bead_mask(lam, beads)) == lam


def test_adding_a_strip_inverts_removing_one():
    # (lam, sign) in add(nu, r) <=> (nu, sign) in remove(lam, r), for |nu| <= 10
    # and r <= 10 (r <= 12 - |nu| as well), on masks with as many beads as the
    # result can have rows and with more
    removed = {}
    for m in range(1, 21):
        for lam in partitions_of(m):
            for r in range(1, min(m, 12) + 1):
                for nu, sign in _strips(lam, r):
                    removed.setdefault((nu, r), set()).add((lam, sign))
    for m in range(11):
        for nu in partitions_of(m):
            for r in range(1, max(11, 13 - m)):
                for beads in (len(nu) + r, m + r + 2):
                    added = _add_strips(bead_mask(nu, beads), r)
                    added = [(_partition(sup), sign) for sup, sign in added]
                    assert len(set(added)) == len(added)
                    assert set(added) == removed.get((nu, r), set()), (nu, r, beads)


def test_schur_expand_h2():
    assert schur_expand(SymSeries.h(2), 2) == {(2,): TPoly.const(1)}


def test_schur_expand_p11():
    f = SymSeries.p((1, 1))
    assert schur_expand(f, 2) == {(2,): TPoly.const(1), (1, 1): TPoly.const(1)}


def test_schur_expand_rejects_inhomogeneous():
    f = SymSeries.h(2, 3) + SymSeries.p(3, 3)
    with pytest.raises(ValueError):
        schur_expand(f, 3)


def test_schur_expand_rejects_a_degree_past_the_known_one():
    # a series known through degree 4 says nothing of degree 6: no empty table
    with pytest.raises(ValueError, match=r"degree 6: the series is known only through degree 4"):
        schur_expand(SymSeries.zero(4), 6)


def test_schur_expand_in_degree_zero():
    assert schur_expand(SymSeries.p((), 0), 0) == {(): TPoly.const(1)}
    assert schur_expand(SymSeries.zero(0), 0) == {}
    with pytest.raises(ValueError):
        schur_expand(SymSeries.zero(0), -1)


def test_schur_expand_h_and_e():
    # h_n = s_(n); e_n, the p-expansion with signs of the sign character, is s_(1^n)
    for n in range(1, 7):
        assert schur_expand(SymSeries.h(n), n) == {(n,): TPoly.const(1)}
        e_n = SymSeries(
            n,
            {
                (mu, 0): Fraction((-1) ** (n - len(mu)), z_lambda(mu))
                for mu in partitions_of(n)
            },
        )
        assert schur_expand(e_n, n) == {(1,) * n: TPoly.const(1)}


@pytest.mark.parametrize("n", range(1, 8))
def test_schur_expand_of_a_mixed_t_series_by_hook_lengths(n):
    # p_1^n = sum_lam f^lam s_lam, the regular representation, with the
    # dimensions f^lam by hook lengths, so h_n + 2t p_1^n has the table below
    f = SymSeries.h(n, n) + SymSeries.p((1,) * n, n) * TPoly((0, 2))
    expected = {lam: TPoly((0, 2 * hook_length_dimension(lam))) for lam in partitions_of(n)}
    expected[(n,)] = TPoly((1, 2))
    got = schur_expand(f, n)
    assert got == expected
    assert tuple(got) == partitions_of(n)


def homogeneous_series(max_n=7):
    """Random homogeneous series with coefficients over small denominators."""
    def of_degree(n):
        keys = st.tuples(st.sampled_from(partitions_of(n)), st.integers(min_value=0, max_value=3))
        return st.dictionaries(keys, fractions(max_num=9, max_den=12), max_size=10).map(
            lambda terms: (n, SymSeries(n, terms))
        )

    return st.integers(min_value=1, max_value=max_n).flatmap(of_degree)


def character_table_expansion(f, n):
    """<f, s_lam> as a Fraction dot product with the removal-rule character table."""
    table = character_table(n)
    expected = {}
    for lam in partitions_of(n):
        coeffs = [
            sum((f.p_coefficient(mu)[k] * table[lam, mu] for mu in partitions_of(n)), Fraction(0))
            for k in range(f.t_degree() + 1)
        ]
        if any(coeffs):
            expected[lam] = TPoly(coeffs)
    return expected


# the packed sweep's width is proved from isqrt(n!) times the l1 norm of the
# rows; a lone p_1 term meets that bound, so a narrower width fails it
@example((1, SymSeries(1, {((1,), 0): Fraction(10**40, 3)})))
@example((2, SymSeries(2, {((1, 1), 0): -(2**64), ((2,), 1): -(2**64) + 1})))
@example(
    (
        5,
        SymSeries(
            5, {((1,) * 5, 3): Fraction(10**40, 3), ((2, 2, 1), 0): -7, ((5,), 1): Fraction(-2, 5)}
        ),
    )
)
@example((4, SymSeries(4, {((1,) * 4, 0): -1, ((2, 1, 1), 1): -3, ((4,), 2): Fraction(-1, 2)})))
@example((3, SymSeries(3, {((2, 1), 60): Fraction(1, 3), ((1, 1, 1), 0): 1, ((3,), 31): -2})))
@given(homogeneous_series())
def test_schur_expand_matches_a_naive_fraction_dot_product(case):
    n, f = case
    assert schur_expand(f, n) == character_table_expansion(f, n)


def test_schur_expand_of_the_top_solved_component_matches_the_character_table():
    # the removal route at the degree `table --max-n 12` expands
    f = solved_series(12).component(12)
    expected = character_table_expansion(f, 12)
    got = schur_expand(f, 12)
    assert list(got) == list(expected)
    assert got == expected


def test_the_degrees_of_one_series_share_strip_sets():
    # every degree's sweep keys its vectors by f.n_max beads, so a partition
    # has one bead mask in all of them: the eleven sweeps of `table --max-n
    # 12` compute each (partition, strip size) pair's strips once, where
    # n beads per degree computed 1,336 strip sets
    B = solved_series(12)
    _add_strips.cache_clear()
    for n in range(2, 13):
        schur_expand(B.component(n), n)
    assert _add_strips.cache_info().misses <= 618
