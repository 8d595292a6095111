from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from braidchow import pointcounts
from braidchow.characters import schur_expand
from braidchow.numeric import omega_shifted
from braidchow.partitions import multiplicities, partitions_of, z_lambda
from braidchow.pointcounts import (
    _check_component,
    m_component,
    m_series,
    necklace,
    twisted_count,
)
from braidchow.symseries import SymSeries, rk
from braidchow.tpoly import T_MINUS_ONE, TPoly


def test_necklace_small():
    q = TPoly((0, 1))
    assert necklace(1) == q
    assert necklace(2) == (q * q - q) * Fraction(1, 2)
    assert necklace(3) == (q**3 - q) * Fraction(1, 3)
    assert necklace(6) == (q**6 - q**3 - q**2 + q) * Fraction(1, 6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_necklace_counts_irreducibles(q):
    # sum_{d | n} d * necklace(d)(q) = q^n counts all points of degree dividing n
    for n in range(1, 7):
        total = sum(d * necklace(d).eval(q) for d in range(1, n + 1) if n % d == 0)
        assert total == q**n


class GF:
    """Tiny finite field GF(p^m): elements are coefficient tuples mod p,
    multiplied modulo a fixed irreducible polynomial."""

    IRREDUCIBLE = {
        (2, 1): (1, 1),  # x + 1 (any monic linear works for m = 1)
        (2, 2): (1, 1, 1),  # x^2 + x + 1
        (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
        (3, 1): (1, 1),
        (3, 2): (1, 0, 1),  # x^2 + 1
        (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1, no roots mod 3
    }

    def __init__(self, p, m):
        self.p, self.m = p, m
        self.modulus = self.IRREDUCIBLE[(p, m)]
        self.elements = [tuple(c) for c in product(range(p), repeat=m)]

    def mul(self, a, b):
        raw = [0] * (2 * self.m - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                raw[i + j] = (raw[i + j] + ca * cb) % self.p
        for top in range(len(raw) - 1, self.m - 1, -1):
            c = raw[top]
            if c:
                raw[top] = 0
                for j in range(self.m):
                    raw[top - self.m + j] = (raw[top - self.m + j] - c * self.modulus[j]) % self.p
        return tuple(raw[: self.m])

    def pow(self, a, e):
        out = (1,) + (0,) * (self.m - 1)
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a):
        return self.pow(a, self.p)


def brute_twisted_count(lam, q):
    """Exact oracle: count distinct tuples over the algebraic closure fixed by
    (cycle permutation) o Frobenius.  A cycle of length d forces its entries
    into GF(q^d) and determines them from one seed, so it suffices to
    enumerate seeds inside GF(q^lcm) for lcm = lcm of the parts."""
    from math import lcm

    field = GF(q, lcm(*lam))
    count = 0
    for seeds in product(field.elements, repeat=len(lam)):
        values = []
        ok = True
        for part, seed in zip(lam, seeds):
            orbit = [seed]
            for _ in range(part - 1):
                orbit.append(field.frobenius(orbit[-1]))
            if field.frobenius(orbit[-1]) != seed:
                ok = False  # seed not in GF(q^part)
                break
            values.extend(orbit)
        if ok and len(set(values)) == len(values):
            count += 1
    return count


@pytest.mark.parametrize("lam", [(1, 1), (2,), (1, 1, 1), (2, 1), (3,), (2, 2), (2, 1, 1)])
@pytest.mark.parametrize("q", [2, 3])
def test_twisted_count_finite_field_oracle(lam, q):
    assert twisted_count(lam).eval(q) == brute_twisted_count(lam, q)


def test_twisted_count_identity_is_falling_factorial():
    for n in range(1, 8):
        expected = TPoly.const(1)
        for i in range(n):
            expected = expected * TPoly((-i, 1))
        assert twisted_count((1,) * n) == expected


def test_twisted_count_single_cycles():
    q = TPoly((0, 1))
    assert twisted_count((2,)) == q * q - q
    assert twisted_count((3,)) == q**3 - q
    assert twisted_count((4,)) == q**4 - q**2


def test_twisted_counts_average_to_squarefree_polys():
    # Burnside: averaging the twisted counts over all cycle types (weighted by
    # class size) counts unordered configurations, i.e. squarefree monic
    # polynomials of degree n: exactly q^n - q^(n-1).
    q = TPoly((0, 1))
    for n in range(2, 10):
        total = TPoly()
        for lam in partitions_of(n):
            total = total + twisted_count(lam) * Fraction(1, z_lambda(lam))
        assert total == q**n - q ** (n - 1), n


def test_twisted_count_values_are_counts():
    for n in range(1, 9):
        for lam in partitions_of(n):
            poly = twisted_count(lam)
            assert poly.has_integer_coeffs()
            for q in (2, 3, 4, 5):
                value = poly.eval(q)
                assert value >= 0 and value.denominator == 1


def test_m2_is_h2():
    assert m_component(2) == SymSeries.h(2)


def test_m3_schur_expansion():
    table = schur_expand(m_component(3), 3)
    assert table == {(3,): TPoly((0, 1)), (2, 1): TPoly.const(-1)}


def test_m4_rank_polynomial():
    dims = rk(m_component(4))
    assert dims == {4: TPoly((-2, 1)) * TPoly((-3, 1))}


def test_m_series_checks_its_invariants_on_either_form():
    # the integer form the series is built in, and the same terms as Fractions
    for comp in (m_component(4), SymSeries(4, m_component(4).terms)):
        _check_component(4, comp)
        with pytest.raises(ValueError, match="rank-polynomial invariant"):
            _check_component(4, comp * 2)
        with pytest.raises(ValueError, match="exceeds t-degree 2"):
            _check_component(4, comp * TPoly((0, 1)))


def test_m_series_checks_every_component(monkeypatch):
    seen = []
    monkeypatch.setattr(pointcounts, "_check_component", lambda n, comp: seen.append((n, comp)))
    M = m_series.__wrapped__(5)  # past the cache, so the series is built here
    assert isinstance(M, SymSeries)
    assert seen == list(M.components.items())
    assert [n for n, _comp in seen] == [2, 3, 4, 5]


def test_m_series_components():
    M = m_series(4)
    assert set(M.components) == {2, 3, 4}
    assert M.component(2) == SymSeries.h(2, 4)
    for n in range(2, 5):
        comp = M.component(n)
        assert comp.is_homogeneous(n)
        assert comp.t_degree() <= n - 2


def test_m_series_rank_identity():
    M = m_series(10)
    for n in range(2, 11):
        got = M.component(n).p_coefficient((1,) * n) * factorial(n)
        assert got == omega_shifted(n).divexact(T_MINUS_ONE)


@pytest.mark.parametrize("n", range(2, 9))
def test_m_schur_coefficients_integral_with_trivial_top(n):
    table = schur_expand(m_component(n), n)
    for lam, poly in table.items():
        assert poly.has_integer_coeffs()
        assert poly[n - 2] == (1 if lam == (n,) else 0)


def test_m_series_rejects_small_n():
    with pytest.raises(ValueError):
        m_series(1)
    with pytest.raises(ValueError):
        m_component(1)


# -- the integer input series ---------------------------------------------------


def fraction_twisted_count(lam):
    """The falling-factorial product of d * necklace(d), in TPoly/Fraction
    arithmetic throughout."""
    poly = TPoly.const(1)
    for d, m in multiplicities(lam).items():
        for i in range(m):
            poly = poly * (necklace(d) * d - d * i)
    return poly


@pytest.mark.parametrize("n", range(1, 13))
def test_twisted_count_matches_the_fraction_product(n):
    for lam in partitions_of(n):
        assert twisted_count(lam) == fraction_twisted_count(lam), lam


@pytest.mark.parametrize("bump", [0, 1, 2], ids=["constant", "linear", "quadratic"])
def test_m_component_rejects_a_count_not_divisible_by_q_qminus1(monkeypatch, bump):
    original = pointcounts._twisted

    def bumped(lam):
        coeffs = original(lam)
        if lam == (2, 1, 1):
            coeffs = coeffs[:bump] + (coeffs[bump] + 1,) + coeffs[bump + 1 :]
        return coeffs

    monkeypatch.setattr(pointcounts, "_twisted", bumped)
    assert m_component(3)  # other degrees are untouched
    with pytest.raises(ValueError, match=r"cycle type \(2, 1, 1\) is not divisible by q\(q - 1\)"):
        m_component(4)


def test_twisted_counts_are_handed_out_as_tuples():
    # counts are cached and shared by prefix; a caller cannot change them
    for lam in partitions_of(5):
        coeffs = pointcounts._twisted(lam)
        assert isinstance(coeffs, tuple), lam
        assert coeffs == fraction_twisted_count(lam).coeffs, lam
    with pytest.raises(TypeError):
        pointcounts._twisted((2, 1, 1))[0] += 1
    assert twisted_count((2, 1, 1, 1)) == fraction_twisted_count((2, 1, 1, 1))
