import operator
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from braidchow.tpoly import T, T_MINUS_ONE, TPoly, format_poly

polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(TPoly)

# ints and Fractions with denominators 1..6 (a Fraction n/1 included)
scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=6),
    ),
)
qpolys = st.lists(scalars, max_size=5).map(TPoly)


def test_construction_strips_zeros():
    assert TPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert TPoly((0, 0)).coeffs == ()
    assert not TPoly()
    assert TPoly().degree == -1


def test_arithmetic_basics():
    p = TPoly((1, 2))
    q = TPoly((0, 0, 3))
    assert p + q == TPoly((1, 2, 3))
    assert p - p == TPoly()
    assert p * q == TPoly((0, 0, 3, 6))
    assert 2 * p == TPoly((2, 4))
    assert (T - 1) == T_MINUS_ONE
    assert T**3 == TPoly((0, 0, 0, 1))


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_divmod_reconstructs(a, b):
    if not b:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree or not r


def test_divexact():
    p = T_MINUS_ONE * TPoly((2, 0, 5))
    assert p.divexact(T_MINUS_ONE) == TPoly((2, 0, 5))
    with pytest.raises(ValueError):
        TPoly((1, 1)).divexact(T_MINUS_ONE)


def test_compose_and_eval():
    p = TPoly((1, 0, 1))  # 1 + t^2
    assert p.compose(T_MINUS_ONE) == TPoly((2, -2, 1))
    assert p.eval(3) == 10
    assert p.eval(Fraction(1, 2)) == Fraction(5, 4)


@given(polys, polys, st.integers(min_value=-3, max_value=3))
def test_compose_matches_eval(a, b, x):
    assert a.compose(b).eval(x) == a.eval(b.eval(x))


def test_shape_predicates():
    assert TPoly((1, 8, 1)).is_palindromic()
    assert not TPoly((1, 2)).is_palindromic()
    assert TPoly((1, 41, 41, 1)).is_unimodal()
    assert not TPoly((1, 0, 1)).is_unimodal()
    assert TPoly((5, 1)).is_monic()
    assert not TPoly((2, 3)).is_monic()
    assert TPoly((1, 2)).has_integer_coeffs()
    assert not TPoly((Fraction(1, 2),)).has_integer_coeffs()


def test_format():
    assert format_poly(TPoly((1, 3, 1))) == "1 + 3t + t^2"
    assert format_poly(TPoly((0, 9, 28, 9))) == "9t + 28t^2 + 9t^3"
    assert format_poly(TPoly((0, -1, 2))) == "-t + 2t^2"
    assert format_poly(TPoly()) == "0"
    assert format_poly(TPoly((2, -3)), var="q") == "2 - 3q"


# -- coefficients in normal form, against a pure-Fraction reference ---------------


def is_normal(c) -> bool:
    """An int, or a Fraction that is not an integer; never a float or a bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def normal_poly(p: TPoly) -> bool:
    return all(is_normal(c) for c in p.coeffs)


def ref(p: TPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def ref_strip(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    pad = [Fraction(0)] * n
    return ref_strip([x + y for x, y in zip(a + pad[len(a) :], b + pad[len(b) :])])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_pow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_compose(a, b):
    out: list[Fraction] = []
    for i, c in enumerate(a):
        out = ref_add(out, ref_mul([c], ref_pow(b, i)))
    return out


def ref_eval(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def ref_divmod(a, b):
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return ref_strip(q), ref_strip(rem)


def test_construction_normalizes_integral_fractions():
    p = TPoly((Fraction(4, 2), Fraction(1, 3), Fraction(-6, 3)))
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert p.coeffs == (2, Fraction(1, 3), -2)
    assert TPoly.const(Fraction(0, 5)).coeffs == ()
    assert type(TPoly((1, 2))[7]) is int


@given(qpolys, qpolys)
def test_ring_operations_stay_in_normal_form(a, b):
    ra, rb = ref(a), ref(b)
    neg_b = [-c for c in rb]
    for got, want in (
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, neg_b)),
        (a * b, ref_mul(ra, rb)),
        (-a, [-c for c in ra]),
        (a.compose(b), ref_compose(ra, rb)),
    ):
        assert normal_poly(got), got.coeffs
        assert list(got.coeffs) == want


@given(qpolys, scalars)
def test_scalar_operations_stay_in_normal_form(a, c):
    ra = ref(a)
    for got, want in (
        (a + c, ref_add(ra, [Fraction(c)])),
        (c - a, ref_add([Fraction(c)], [-x for x in ra])),
        (c * a, ref_mul(ra, [Fraction(c)])),
    ):
        assert normal_poly(got), got.coeffs
        assert list(got.coeffs) == want
    assert (a == c) == (ra == ref_strip([Fraction(c)]))


@given(qpolys, st.integers(min_value=0, max_value=3))
def test_power_stays_in_normal_form(a, n):
    got = a**n
    assert normal_poly(got), got.coeffs
    assert list(got.coeffs) == ref_pow(ref(a), n)


@given(qpolys, qpolys)
def test_divmod_stays_in_normal_form(a, b):
    if not b:
        return
    q, r = a.divmod(b)
    assert normal_poly(q), q.coeffs
    assert normal_poly(r), r.coeffs
    assert (list(q.coeffs), list(r.coeffs)) == ref_divmod(ref(a), ref(b))


@given(qpolys, scalars)
def test_eval_stays_in_normal_form(a, x):
    v = a.eval(x)
    assert is_normal(v), v
    assert v == ref_eval(ref(a), x)


# -- no inexact value crosses the TPoly boundary ------------------------------


INEXACT = [0.1, 0.5, 2.0, True, False, "1/3", 1j]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_constructor_rejects_inexact_coefficients(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        TPoly([1, bad])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        TPoly.const(bad)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.eq])
@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_operators_reject_inexact_scalars(op, bad):
    p = TPoly((1, 2))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        op(p, bad)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        op(bad, p)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_eval_rejects_an_inexact_point(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        TPoly((1, 2)).eval(bad)


def test_an_object_that_is_no_number_is_left_to_its_own_operators():
    assert TPoly((1,)) != None  # noqa: E711
    assert TPoly((1,)) != object()
    with pytest.raises(TypeError):
        TPoly((1,)) + object()
