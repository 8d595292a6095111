import re
from fractions import Fraction
from itertools import permutations
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from braidchow.partitions import merge, partitions_of
from braidchow.symseries import (
    PlethysmCache,
    SymSeries,
    _add_parts,
    _fractions,
    _numerators,
    _over_tminus1,
    _pack,
    _unpack,
    frobenius_from_character,
    plethysm,
    psi,
    rk,
)
from braidchow.tpoly import T_MINUS_ONE, TPoly

from .strategies import inner_series, partitions, series


def P(parts, n_max=None, t=0):
    parts = tuple(parts)
    if n_max is None:
        n_max = sum(parts)
    return SymSeries(n_max, {(parts, t): Fraction(1)})


# -- ring operations ----------------------------------------------------------


@pytest.mark.parametrize(
    "key, coeff",
    [
        (((2,), 0), 0.1),
        (((2,), 0), True),
        (((2,), 0), "1/2"),
        (((2,), 1.5), 1),
        (((2,), True), 1),
        (((2,), 2.0), 1),
        (((2,), -1), 1),
    ],
    ids=repr,
)
def test_constructor_rejects_inexact_coefficients_and_exponents(key, coeff):
    parts, k = key
    with pytest.raises(ValueError, match=re.escape(f"term {parts!r} t^{k!r}")):
        SymSeries(2, {key: coeff})


def test_constructor_rejects_a_partition_of_bools():
    with pytest.raises(ValueError, match=re.escape("not a partition: (True,)")):
        SymSeries(2, {((True,), 0): 1})


@pytest.mark.parametrize("parts", [("a",), (1, 2), (9, "x")], ids=repr)
def test_constructor_rejects_a_non_partition_at_any_size(parts):
    # also past n_max, where the term would be dropped, and at coefficient 0
    for coeff in (1, 0):
        with pytest.raises(ValueError, match=re.escape(f"not a partition: {parts!r}")):
            SymSeries(2, {(parts, 0): coeff})


def test_monomial_product_concatenates():
    tp1 = SymSeries(3, {((1,), 1): Fraction(1)})
    assert tp1 * P((2,), 3) == SymSeries(3, {((2, 1), 1): Fraction(1)})


def test_h1_squared():
    h1 = SymSeries.h(1, 2)
    assert h1 * h1 == P((1, 1))


def test_additive_inverse():
    h2 = SymSeries.h(2)
    assert not (h2 + (-1) * h2)


def test_truncating_above_the_known_degree_raises():
    # f is unknown past degree 4: a sum with a longer series must not read
    # its degree-5 part as zero
    f = SymSeries.h(2, 4) + P((3, 1), 4, t=1)
    with pytest.raises(ValueError, match=r"degree 6: the series is known only through degree 4"):
        f.truncate(6)
    assert f.truncate(4) == f
    assert f.truncate(3) == SymSeries.h(2, 3)


def test_reading_above_the_known_degree_raises():
    # f is unknown past degree 4: a read there must not come back as zero
    f = SymSeries.h(2, 4) + P((3, 1), 4, t=1)
    reads = [
        lambda: f.component(6),
        lambda: f.p_coefficient((1,) * 6),
    ]
    for read in reads:
        with pytest.raises(ValueError, match=r"degree 6: the series is known only through degree 4"):
            read()
    assert f.component(4) == P((3, 1), 4, t=1) and not f.component(3)
    assert f.p_coefficient((3, 1)) == TPoly((0, 1))


def test_truncation_on_multiply():
    a = P((2,), 3)
    b = P((2,), 3)
    assert not (a * b)  # degree 4 > n_max 3


def test_mixed_nmax_takes_smaller():
    a = P((1,), 5)
    b = P((1,), 3)
    assert (a * b).n_max == 3


@given(series(), series(), series())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h


# -- homogeneous symmetric functions -------------------------------------------


def exp_oracle_h(n):
    """h_n from the exponential of sum p_k / k, an independent construction."""
    s = SymSeries.zero(n)
    for k in range(1, n + 1):
        s = s + P((k,), n) * Fraction(1, k)
    ex = SymSeries.p((), n)
    power = SymSeries.p((), n)
    for k in range(1, n + 1):
        power = power * s
        ex = ex + power * Fraction(1, factorial(k))
    return ex.component(n)


def test_h1_is_p1():
    assert SymSeries.h(1) == P((1,))


def test_h2_expansion():
    assert SymSeries.h(2) == SymSeries(
        2, {((1, 1), 0): Fraction(1, 2), ((2,), 0): Fraction(1, 2)}
    )


def test_h3_expansion():
    expected = SymSeries(
        3,
        {
            ((1, 1, 1), 0): Fraction(1, 6),
            ((2, 1), 0): Fraction(3, 6),
            ((3,), 0): Fraction(2, 6),
        },
    )
    assert SymSeries.h(3) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_h_matches_exponential_oracle(n):
    assert SymSeries.h(n) == exp_oracle_h(n)


# -- psi ------------------------------------------------------------------------


def test_psi_defining_rule():
    f = P((1,), 6) + SymSeries(6, {((3,), 1): Fraction(1)})
    assert psi(2, f) == P((2,), 6) + SymSeries(6, {((6,), 2): Fraction(1)})


def test_psi_on_h1():
    assert psi(3, SymSeries.h(1, 3)) == P((3,))


def test_psi_on_h2():
    expected = SymSeries(4, {((2, 2), 0): Fraction(1, 2), ((4,), 0): Fraction(1, 2)})
    assert psi(2, SymSeries.h(2, 4)) == expected


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    series(n_max=8),
)
def test_psi_composition(a, b, f):
    assert psi(a, psi(b, f)) == psi(a * b, f)


def test_psi_composition_full_range():
    f = SymSeries.h(2, 36) + SymSeries(36, {((1,), 1): Fraction(1)})
    for a in range(1, 7):
        for b in range(1, 7):
            assert psi(a, psi(b, f)) == psi(a * b, f)


@given(st.integers(min_value=1, max_value=3), series(n_max=6), series(n_max=6))
def test_psi_is_ring_map(k, f, g):
    assert psi(k, f * g) == psi(k, f) * psi(k, g)
    assert psi(k, f + g) == psi(k, f) + psi(k, g)


# -- plethysm --------------------------------------------------------------------


def test_p_circ_p():
    assert plethysm(P((2,), 6), P((3,), 6)) == P((6,), 6)


def test_plethysm_homogeneity():
    h2 = SymSeries.h(2, 4)
    tp1 = SymSeries(4, {((1,), 1): Fraction(1)})
    assert plethysm(h2, tp1) == SymSeries(
        4, {((1, 1), 2): Fraction(1, 2), ((2,), 2): Fraction(1, 2)}
    )


def pairs_action_oracle():
    """h_2 o h_2 as the characteristic of permuting the pair-partitions of a 4-set.

    Counts fixed points of every permutation directly.
    """
    matchings = [
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
    ]

    def cycle_type(perm):
        seen, lengths = set(), []
        for start in range(4):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = perm[x]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    fixed = {lam: 0 for lam in partitions_of(4)}
    count = {lam: 0 for lam in partitions_of(4)}
    for perm in permutations(range(4)):
        lam = cycle_type(perm)
        count[lam] += 1
        for m in matchings:
            image = frozenset(frozenset(perm[x] for x in block) for block in m)
            if image == m:
                fixed[lam] += 1
    char = {lam: Fraction(fixed[lam], count[lam]) for lam in partitions_of(4)}
    return frobenius_from_character(4, {lam: TPoly.const(v) for lam, v in char.items()})


def test_h2_circ_h2_against_orbit_oracle():
    h2 = SymSeries.h(2, 4)
    assert plethysm(h2, h2) == pairs_action_oracle()


def test_plethysm_rejects_constant_term():
    with pytest.raises(ValueError):
        plethysm(SymSeries.h(2, 4), SymSeries.p((), 4))
    # a term in t alone is refused too: with g = t + p_1, f = p_1 and
    # f' = p_1 + p_1^3 agree through degree 2, but (t + p_1)^3 would put
    # t^3, 3 p_1 t^2 and 3 p_11 t into f' o g below degree 3
    g = SymSeries(3, {((), 1): 1, ((1,), 0): 1})
    for f in (SymSeries.p(1, 2), SymSeries.p(1, 3) + SymSeries.p((1, 1, 1), 3)):
        with pytest.raises(ValueError, match="no degree-0 part"):
            plethysm(f, g)


@given(series(), series(), inner_series())
@settings(max_examples=25)
def test_plethysm_is_algebra_map(f, g, h):
    cache = PlethysmCache(h)
    assert plethysm(f + g, h, cache) == plethysm(f, h, cache) + plethysm(g, h, cache)
    assert plethysm(f * g, h, cache) == plethysm(f, h, cache) * plethysm(g, h, cache)


@given(series(n_max=5, max_terms=3), inner_series(n_max=5), inner_series(n_max=5))
@settings(max_examples=25)
def test_plethysm_associativity(f, g, h):
    assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


def reference_plethysm(f, g):
    """f o g monomial by monomial over Fractions: each t^e p_lambda of f
    becomes t^e prod_i psi(lambda_i, g), with psi applied to g's terms."""
    n_max = min(f.n_max, g.n_max)
    out = {}
    for (lam, e), c in f.terms.items():
        prod = {((), e): c}
        for part in lam:
            nxt = {}
            for (pa, ka), ca in prod.items():
                for (pb, kb), cb in g.terms.items():
                    q = tuple(sorted(pa + tuple(part * p for p in pb), reverse=True))
                    if sum(q) <= n_max:  # degrees never fall, so truncating early is safe
                        key = (q, ka + part * kb)
                        nxt[key] = nxt.get(key, Fraction(0)) + ca * cb
            prod = nxt
        for key, v in prod.items():
            out[key] = out.get(key, Fraction(0)) + v
    return {key: v for key, v in out.items() if v}


def odd_inner_series(n_max=6):
    """Inner series whose denominators need not divide the factorial of
    their degree (1/7 p_1, 1/11 p_2 t, ...)."""
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-5, max_value=5).filter(bool),
        st.integers(min_value=1, max_value=12),
    )
    keys = st.tuples(partitions(3), st.integers(min_value=0, max_value=2))
    return st.dictionaries(keys, coeff, min_size=1, max_size=3).map(
        lambda terms: SymSeries(n_max, terms)
    )


@pytest.mark.parametrize(
    "g, scale",
    [
        (SymSeries(6, {((1,), 0): Fraction(1, 7)}), 7),
        (SymSeries(6, {((1,), 1): Fraction(1, 4)}), 4),
        (SymSeries(6, {((2,), 0): Fraction(1, 4)}), 2),
        (SymSeries(6, {((1,), 0): Fraction(1, 7), ((1,), 1): Fraction(1, 4)}), 28),
        (SymSeries.h(3, 6), 1),
    ],
    ids=["p1/7", "t p1/4", "p2/4", "p1/7 + t p1/4", "h3"],
)
def test_plethysm_scale_and_reference(g, scale):
    cache = PlethysmCache(g)
    assert cache.scale == scale
    f = SymSeries.h(3, 6) + P((2, 1), 6, t=1) + SymSeries(6, {((2,), 2): Fraction(-3, 5)})
    assert plethysm(f, g, cache).terms == reference_plethysm(f, g)


@given(series(n_max=6, max_terms=4), odd_inner_series())
@settings(max_examples=40)
def test_plethysm_matches_fraction_reference(f, g):
    assert plethysm(f, g).terms == reference_plethysm(f, g)


@given(series(n_max=6, max_terms=4), inner_series(n_max=6))
@settings(max_examples=40)
def test_plethysm_matches_fraction_reference_on_plain_inner_series(f, g):
    assert plethysm(f, g).terms == reference_plethysm(f, g)


def test_plethysm_rejects_an_inexact_psi_scaling():
    cache = PlethysmCache(SymSeries(4, {((1,), 0): Fraction(1, 7)}))
    cache.scale = 1  # too small for 1/7 p_1, so the scaled term is not an integer
    with pytest.raises(ArithmeticError, match="does not scale to an integer"):
        cache.product((1,))


@given(st.one_of(inner_series(n_max=6), odd_inner_series()), st.integers(1, 4))
@settings(max_examples=40)
def test_the_table_of_one_part_is_the_psi_image(g, k):
    """product((k,)) unpacked is psi(k, g), each term of degree d at scale L * d!:
    the term c t^e p_mu of g becomes c t^(k e) p_(k mu), up to degree g.n_max."""
    cache = PlethysmCache(g)
    table = cache.product((k,))
    unpacked = {
        (cache.partition(q), e): Fraction(n, cache.scale * factorial(d))
        for d, by_q in table.items()
        for q, x in by_q.items()
        for e, n in _unpack(x, cache.width).items()
    }
    expected = {
        (tuple(k * p for p in mu), k * e): c
        for (mu, e), c in g.terms.items()
        if k * sum(mu) <= g.n_max
    }
    assert unpacked == expected == psi(k, g).terms


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=10), st.integers(-(1 << 70), 1 << 70), max_size=8
    )
)
def test_over_tminus1_matches_polynomial_division(row):
    def poly(r):
        return TPoly([r.get(k, 0) for k in range(max(r, default=-1) + 1)])

    quotient, remainder = _over_tminus1(row)
    expected_q, expected_r = poly(row).divmod(T_MINUS_ONE)
    assert all(quotient.values())
    assert poly(quotient) == expected_q
    assert TPoly.const(remainder) == expected_r


# -- Kronecker-packed t-rows ---------------------------------------------------------


def signed_rows(width):
    """t-rows whose coefficients are balanced width-bit digits, the extreme
    ones +-(2^(width - 1) - 1) drawn often."""
    top = (1 << (width - 1)) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 1, -1]))
    return st.dictionaries(st.integers(min_value=0, max_value=12), digit, max_size=8)


@given(st.integers(min_value=2, max_value=80).flatmap(lambda w: st.tuples(st.just(w), signed_rows(w))))
@example((2, {0: 1, 1: -1}))
@example((8, {0: 127, 5: -127}))  # a negative total
@example((8, {3: -1}))
def test_pack_unpack_round_trip(case):
    width, row = case
    x = _pack(row, width)
    assert x == sum(c * 2 ** (k * width) for k, c in row.items())
    assert _unpack(x, width) == {k: c for k, c in row.items() if c}


def test_a_width_too_narrow_raises():
    for c in (128, -128):
        with pytest.raises(ArithmeticError, match="does not fit a 8-bit digit"):
            _pack({2: c}, 8)
    g = SymSeries(6, {((1,), 0): Fraction(1, 7), ((2,), 1): Fraction(-3, 4)})
    cache = PlethysmCache(g)
    cache.max_width = cache.width = 8
    f = SymSeries(6, {((2, 1), 1): Fraction(10**40, 3)})
    with pytest.raises(ArithmeticError, match="more than 8"):
        plethysm(f, g, cache)


def test_a_plethysm_that_widens_the_cache_matches_the_reference():
    g = SymSeries(6, {((1,), 0): Fraction(1, 7), ((2,), 1): Fraction(-3, 4)})
    cache = PlethysmCache(g)
    small = SymSeries.h(3, 6) + P((1, 1), 6, t=1)
    assert plethysm(small, g, cache).terms == reference_plethysm(small, g)
    width = cache.width
    big = SymSeries(
        6,
        {((2, 1), 1): Fraction(10**40, 3), ((3,), 0): -(10**30), ((1, 1), 2): Fraction(5, 9)},
    )
    assert plethysm(big, g, cache).terms == reference_plethysm(big, g)
    assert cache.width > width
    # the tables repacked at the new width still give the old result
    assert plethysm(small, g, cache).terms == reference_plethysm(small, g)


@given(series(n_max=6, max_terms=4), inner_series(n_max=6))
@settings(max_examples=25)
def test_integer_form_splits_and_reads_like_its_terms(f, g):
    s = plethysm(f, g)
    for n_max in (6, 3):
        den, rows = _numerators(s, n_max)
        assert _fractions(rows, den) == {tk: c for tk, c in s.terms.items() if sum(tk[0]) <= n_max}
    assert s.components == {n: s.component(n) for n in s.degrees()}


def test_plethysm_right_identity():
    f = SymSeries.h(4, 5) + P((2, 1), 5, t=1)
    assert plethysm(f, P((1,), 5)) == f


@given(series(n_max=6, max_terms=4), st.one_of(inner_series(n_max=5), odd_inner_series()))
@example(SymSeries.h(3, 6) + P((2, 1), 6, t=1), SymSeries.h(2, 6) + P((1,), 6, t=1))
@settings(max_examples=40)
def test_a_plethysm_of_one_degree_is_that_component_of_the_whole(f, g):
    """The degree-d call, on a cache that the other degrees' calls widened
    first, gives the degree-d component of the whole plethysm."""
    cache = PlethysmCache(g)
    n_max = min(f.n_max, g.n_max)
    by_degree = [plethysm(f, g, cache, degree=d) for d in range(n_max + 1)]
    whole = plethysm(f, g, cache)
    for d, part in enumerate(by_degree):
        assert part == whole.component(d), d
        assert part.degrees() <= {d}


@given(
    series(n_max=6, max_terms=4),
    series(n_max=6, max_terms=3),
    st.integers(min_value=0, max_value=6),
    st.one_of(inner_series(n_max=5), odd_inner_series()),
    st.integers(min_value=0, max_value=12),
)
@example(
    SymSeries.h(3, 6) + P((2, 1), 6, t=1) + P((1, 1), 6),
    P((2, 2), 6, t=2),
    4,
    SymSeries.h(2, 6) + P((1,), 6, t=1),
    3,
)
@settings(max_examples=40)
def test_kept_rows_serve_interleaved_degree_calls_across_a_widening(f, h, k, g, widen_at):
    """One cache serves two outer series that share the held part of every
    degree but k, with their degree calls interleaved and the cache widened
    between two of them: each result is that degree's component of the
    whole plethysm, composed on a fresh cache."""
    cache = PlethysmCache(g)
    n_max = min(f.n_max, g.n_max)
    outers = (f, f + h.component(k))
    calls = [(d, outer) for d in range(n_max + 1) for outer in outers]
    for i, (d, outer) in enumerate(calls):
        if i == widen_at:
            width = cache.width
            cache.fit(1 << (2 * width))
            assert cache.width > width
        assert plethysm(outer, g, cache, degree=d) == plethysm(outer, g).component(d), (i, d)


@pytest.mark.parametrize("degree", [-1, 5, 6])
def test_a_plethysm_rejects_a_degree_outside_its_truncation(degree):
    f = SymSeries.h(3, 6) + P((2, 1), 6, t=1)
    g = SymSeries.h(1, 4) + P((2,), 4, t=1)  # min(f.n_max, g.n_max) = 4
    with pytest.raises(ValueError, match=rf"degree {degree} is outside"):
        plethysm(f, g, degree=degree)
    assert plethysm(f, g, degree=4) == plethysm(f, g).component(4) != SymSeries.zero(4)


# -- partition keys ------------------------------------------------------------------


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 12, 20])
def test_partition_keys_add_like_merges_and_decode(n_max):
    cache = PlethysmCache(SymSeries.zero(n_max))
    by_size = [partitions_of(d) for d in range(n_max + 1)]
    keys = {lam: cache.key(lam) for lams in by_size for lam in lams}
    for da in range(n_max + 1):
        for db in range(n_max - da + 1):
            for a in by_size[da]:
                for b in by_size[db]:
                    assert keys[a] + keys[b] == keys[merge(a, b)], (a, b)
    assert all(cache.partition(key) == lam for lam, key in keys.items())


def test_a_cache_decodes_only_the_keys_it_meets():
    # the largest spot identity: p_6 o p_6 = p_36, with p(36) = 17,977
    # partitions of the top degree alone
    g = SymSeries.p(6, 36)
    cache = PlethysmCache(g)
    assert plethysm(SymSeries.p(6, 36), g, cache) == SymSeries.p(36)
    assert cache._parts == {cache.key((36,)): (36,)}


# -- frobenius characteristic ----------------------------------------------------


def test_frobenius_regular_representation():
    char = {(1, 1, 1): 6, (2, 1): 0, (3,): 0}
    assert frobenius_from_character(3, char) == P((1, 1, 1))


def test_frobenius_trivial_character():
    char = {lam: 1 for lam in partitions_of(3)}
    assert frobenius_from_character(3, char) == SymSeries.h(3)


def test_frobenius_sign_character():
    char = {(1, 1, 1): 1, (2, 1): -1, (3,): 1}
    expected = SymSeries(
        3,
        {
            ((1, 1, 1), 0): Fraction(1, 6),
            ((2, 1), 0): Fraction(-3, 6),
            ((3,), 0): Fraction(2, 6),
        },
    )
    assert frobenius_from_character(3, char) == expected


def test_frobenius_missing_class():
    with pytest.raises(KeyError):
        frobenius_from_character(3, {(3,): 1})


@pytest.mark.parametrize("n", range(1, 9))
def test_frobenius_trivial_equals_h(n):
    char = {lam: 1 for lam in partitions_of(n)}
    assert frobenius_from_character(n, char) == SymSeries.h(n)


# -- rk ---------------------------------------------------------------------------


def test_rk_examples():
    for n in range(1, 7):
        assert rk(SymSeries.h(n)) == {n: TPoly.const(1)}
    assert rk(P((2,))) == {}
    assert rk(P((1, 1, 1))) == {3: TPoly.const(6)}


def _egf_mul(a, b, n_max):
    out = {}
    for n in range(n_max + 1):
        acc = TPoly()
        for k in range(n + 1):
            if k in a and (n - k) in b:
                from math import comb

                acc = acc + a[k] * b[n - k] * comb(n, k)
        if acc:
            out[n] = acc
    return out


def _egf_compose(f, g, n_max):
    # EGF composition via ordinary coefficients, an oracle independent of Bell polynomials
    fo = {n: p * Fraction(1, factorial(n)) for n, p in f.items()}
    go = {n: p * Fraction(1, factorial(n)) for n, p in g.items()}
    comp = {}
    power = {0: TPoly.const(1)}
    for k in range(0, n_max + 1):
        coeff = fo.get(k, TPoly())
        if coeff:
            for n, p in power.items():
                comp[n] = comp.get(n, TPoly()) + coeff * p
        new_power = {}
        for n, p in power.items():
            for m, q in go.items():
                if n + m <= n_max:
                    new_power[n + m] = new_power.get(n + m, TPoly()) + p * q
        power = new_power
    return {n: p * factorial(n) for n, p in comp.items() if p}


@given(series(n_max=5), series(n_max=5))
@settings(max_examples=25)
def test_rk_is_ring_hom(f, g):
    assert rk(f * g) == _egf_mul(rk(f), rk(g), 5)


@given(series(n_max=5, max_terms=3), inner_series(n_max=5))
@settings(max_examples=25)
def test_rk_respects_plethysm(f, g):
    lhs = rk(plethysm(f, g))
    rhs = _egf_compose(rk(f), rk(g), 5)
    assert lhs == rhs


# -- misc structure ----------------------------------------------------------------


def test_components_partition_the_series():
    f = SymSeries.h(3, 5) + P((2, 2), 5, t=1) + SymSeries.p((), 5)
    rebuilt = SymSeries.zero(5)
    for n in sorted(f.degrees()):
        part = f.component(n)
        assert part.is_homogeneous(n)
        rebuilt = rebuilt + part
    assert rebuilt == f


def test_sorted_terms_order():
    f = SymSeries(3, {((1, 1, 1), 0): 1, ((3,), 1): 1, ((3,), 0): 2, ((2, 1), 0): 1, ((), 0): 5})
    keys = [term for term, _c in f.sorted_terms()]
    assert keys == [((), 0), ((3,), 0), ((3,), 1), ((2, 1), 0), ((1, 1, 1), 0)]


def test_components_match_component():
    f = SymSeries.h(3, 5) + P((2, 2), 5, t=1) + SymSeries.p((), 5)
    assert f.components == {n: f.component(n) for n in f.degrees()}
    assert not f.component(5) and f.component(5).n_max == 5


# -- integer-form arithmetic against a plain Fraction reference ---------------------


def _ref_clean(terms, n_max):
    return {tk: c for tk, c in terms.items() if c and sum(tk[0]) <= n_max}


def _ref_add(a, b, n_max):
    out = dict(a)
    for tk, c in b.items():
        out[tk] = out.get(tk, 0) + c
    return _ref_clean(out, n_max)


def _ref_mul(a, b, n_max):
    out = {}
    for (pa, ka), ca in a.items():
        for (pb, kb), cb in b.items():
            key = (tuple(sorted(pa + pb, reverse=True)), ka + kb)
            out[key] = out.get(key, 0) + ca * cb
    return _ref_clean(out, n_max)


def _well_formed(s):
    """The integer form's invariants: every degree held has rows, every row
    is nonempty and free of zeros, every partition has its degree's size, and
    every denominator is positive."""
    for d, (den, rows) in s._int.items():
        assert d <= s.n_max and den > 0 and rows
        for parts, row in rows.items():
            assert sum(parts) == d and row and all(row.values())
    return s


@st.composite
def cancelling_pairs(draw):
    """A series and a second one, at a possibly different n_max, that shares
    some of its terms with opposite signs, so that a sum cancels them."""
    f = draw(series(n_max=draw(st.integers(2, 6))))
    g = draw(series(n_max=draw(st.integers(2, 6))))
    negated = draw(st.sets(st.sampled_from(sorted(f.terms, key=repr)))) if f else set()
    terms = g.terms
    terms.update({tk: -c for tk, c in f.terms.items() if tk in negated and sum(tk[0]) <= g.n_max})
    return f, SymSeries(g.n_max, terms)


@given(cancelling_pairs())
@example((SymSeries.h(2, 4), -SymSeries.h(2, 5)))
def test_integer_sum_and_difference_match_the_fraction_reference(pair):
    f, g = pair
    n_max = min(f.n_max, g.n_max)
    assert _well_formed(f + g).terms == _ref_add(f.terms, g.terms, n_max)
    assert _well_formed(f - g).terms == _ref_add(f.terms, (-g).terms, n_max)
    assert _well_formed(-g).terms == {tk: -c for tk, c in g.terms.items()}
    assert not (f - f)
    assert (f + g == g + f) and ((f - g) + g == f.truncate(n_max))


def test_a_sum_is_held_at_its_least_denominator_where_it_summed():
    a = SymSeries(2, {((2,), 0): Fraction(1, 2)})
    assert (a + a)._int == {2: (1, {(2,): {0: 1}})}
    # a degree only one summand has is kept as that summand holds it
    r = plethysm(SymSeries.h(2, 4), SymSeries.h(2, 4))
    assert (r + P((2,), 4))._int[4] is r._int[4] and r._int[4][0] == 48


def test_add_parts_sums_many_parts_over_different_denominators():
    """Three parts of degree 3 over the denominators 2, 6 and 5: the second
    cancels the t^0 entry of p_3 and the whole row of p_(2, 1), and the third
    brings the row of p_(2, 1) back."""
    parts = [
        (2, {(3,): {0: 1, 1: 1}, (2, 1): {0: 3}}),
        (6, {(3,): {0: -3}, (2, 1): {0: -9}, (1, 1, 1): {2: 1}}),
        (5, {(2, 1): {1: 2, 0: 1}}),
    ]
    expected: dict = {}
    for den, rows in parts:
        for q, row in rows.items():
            for k, v in row.items():
                expected[(q, k)] = expected.get((q, k), 0) + Fraction(v, den)
    expected = {tk: c for tk, c in expected.items() if c}
    den, rows = _add_parts(*parts)
    assert den == 30
    assert _fractions(rows, den) == expected
    assert all(row and all(row.values()) for row in rows.values())
    assert set(rows) == {q for q, _k in expected}
    # the parts are read, not changed
    assert parts[0] == (2, {(3,): {0: 1, 1: 1}, (2, 1): {0: 3}})


@given(series(), st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
def test_integer_scalar_product_matches_the_fraction_reference(f, c):
    want = _ref_clean({tk: v * c for tk, v in f.terms.items()}, f.n_max)
    assert _well_formed(f * c).terms == want
    assert _well_formed(c * f).terms == want
    assert _well_formed(f + c).terms == _ref_add(f.terms, {((), 0): Fraction(c)}, f.n_max)


@given(series(), st.lists(st.fractions(-3, 3, max_denominator=3), max_size=3))
@example(SymSeries(2, {((2,), 0): 1, ((1, 1), 0): 1}), [Fraction(-1), Fraction(1)])
def test_integer_tpoly_product_matches_the_fraction_reference(f, coeffs):
    poly = TPoly(coeffs)
    want = {}
    for (parts, k), v in f.terms.items():
        for i, ci in enumerate(poly.coeffs):
            want[(parts, k + i)] = want.get((parts, k + i), 0) + v * ci
    assert _well_formed(f * poly).terms == _ref_clean(want, f.n_max)


@given(cancelling_pairs())
def test_integer_series_product_matches_the_fraction_reference(pair):
    f, g = pair
    n_max = min(f.n_max, g.n_max)
    assert _well_formed(f * g).terms == _ref_mul(f.terms, g.terms, n_max)


@given(series(), st.integers(1, 4))
def test_integer_psi_matches_the_fraction_reference(f, k):
    want = {
        (tuple(k * p for p in parts), k * e): c
        for (parts, e), c in f.terms.items()
        if k * sum(parts) <= f.n_max
    }
    assert _well_formed(psi(k, f)).terms == want


@given(cancelling_pairs())
def test_integer_equality_matches_the_fraction_reference(pair):
    f, g = pair
    assert (f == g) == (f.n_max == g.n_max and f.terms == g.terms)
    # the same terms over a scaled denominator are the same series
    scaled = SymSeries._from_int(
        f.n_max,
        {d: (3 * den, {q: {k: 3 * v for k, v in row.items()} for q, row in rows.items()})
         for d, (den, rows) in f._int.items()},
    )
    assert scaled == f and f == scaled
    assert (scaled == g) == (f == g)


@given(series(n_max=5, max_terms=3), inner_series(n_max=5))
@example(SymSeries.h(2, 4), SymSeries.h(2, 4))
@settings(max_examples=25)
def test_plethysm_result_equals_the_series_built_from_its_terms(f, g):
    """A plethysm is held over F * L^l * d!, not at its least denominator;
    == reduces each degree, so it equals the same terms built afresh."""
    r = plethysm(f, g)
    rebuilt = SymSeries(r.n_max, r.terms)
    assert r == rebuilt and rebuilt == r
    assert not (r - rebuilt)
    assert r != rebuilt + P((1,), r.n_max)


def test_plethysm_of_h2_is_held_above_its_least_denominator():
    r = plethysm(SymSeries.h(2, 4), SymSeries.h(2, 4))
    den, _rows = r._int[4]
    assert den == 48 and SymSeries(4, r.terms)._int[4][0] == 8
