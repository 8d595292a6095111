"""The Stirling, partial Bell and omega family the numeric routes recur over."""

from fractions import Fraction
from math import factorial

import pytest

from braidchow import checks, numeric
from braidchow.combinat import set_partitions
from braidchow.numeric import (
    bell_partial,
    omega,
    omega_shifted,
    stirling_bell_identity_check,
    stirling_first_signed,
    stirling_second,
)
from braidchow.tpoly import T_MINUS_ONE, TPoly


def falling_factorial_poly(n):
    p = TPoly.const(1)
    for i in range(n):
        p = p * TPoly((-i, 1))
    return p


@pytest.mark.parametrize("n", range(0, 10))
def test_first_kind_matches_falling_factorial(n):
    poly = falling_factorial_poly(n)
    for k in range(n + 1):
        assert stirling_first_signed(n, k) == poly[k]


def test_first_kind_spot_values():
    assert stirling_first_signed(4, 4) == 1
    assert stirling_first_signed(4, 2) == 11
    assert stirling_first_signed(4, 1) == -6


@pytest.mark.parametrize("n", range(0, 9))
def test_second_kind_matches_enumeration(n):
    counts = {}
    for blocks in set_partitions(range(n)):
        counts[len(blocks)] = counts.get(len(blocks), 0) + 1
    for k in range(n + 1):
        expected = counts.get(k, 0) if n else (1 if k == 0 else 0)
        assert stirling_second(n, k) == expected


def test_second_kind_spot_values():
    assert stirling_second(3, 2) == 3
    assert stirling_second(4, 2) == 7
    assert all(stirling_second(n, n) == 1 for n in range(8))
    assert all(stirling_second(n, 1) == 1 for n in range(1, 8))


def test_triangle_inversion():
    for n in range(13):
        for k in range(13):
            total = sum(
                stirling_first_signed(n, j) * stirling_second(j, k)
                for j in range(k, n + 1)
            )
            assert total == (1 if n == k else 0)


def test_index_errors():
    with pytest.raises(ValueError):
        stirling_first_signed(3, 4)
    with pytest.raises(ValueError):
        stirling_second(3, -1)
    with pytest.raises(ValueError):
        bell_partial(3, 0, [TPoly.const(1)])


def test_omega_values():
    assert omega(1) == TPoly.const(1)
    assert omega(2) == TPoly((0, 1))
    assert omega(4) == TPoly((0, 1)) * TPoly((-1, 1)) * TPoly((-2, 1))
    for n in range(1, 12):
        assert omega(n).degree == n - 1


def test_omega_shifted_factorization():
    # omega_n(t-1)/(t-1) = (t-2)...(t-n+1)
    for n in range(2, 12):
        expected = TPoly.const(1)
        for j in range(2, n):
            expected = expected * TPoly((-j, 1))
        assert omega_shifted(n).divexact(T_MINUS_ONE) == expected


def bell_by_set_partitions(n, k, xs):
    """Oracle: sum over set partitions into k blocks of prod x_{|block|}."""
    total = TPoly()
    for blocks in set_partitions(range(n)):
        if len(blocks) != k:
            continue
        term = TPoly.const(1)
        for block in blocks:
            term = term * xs[len(block) - 1]
        total = total + term
    return total


def test_bell_single_block():
    xs = [TPoly((i, 1)) for i in range(5)]
    for n in range(1, 6):
        assert bell_partial(n, 1, xs) == xs[n - 1]


def test_bell_spot_values():
    x = [TPoly((0, 1)), TPoly((0, 0, 1)), TPoly((0, 0, 0, 1))]
    assert bell_partial(3, 2, x) == 3 * x[0] * x[1]
    assert bell_partial(4, 2, x) == 4 * x[0] * x[2] + 3 * x[1] * x[1]


@pytest.mark.parametrize("n", range(1, 8))
def test_bell_matches_set_partition_oracle(n):
    xs = [TPoly((1, i)) for i in range(1, n + 1)]
    for k in range(1, n + 1):
        assert bell_partial(n, k, xs) == bell_by_set_partitions(n, k, xs)


def test_bell_multinomials_are_ints():
    # Bell_{n,k}(1, 1, ...) = S(n, k), a sum of the bare multinomials
    for n in range(1, 10):
        for k in range(1, n + 1):
            poly = bell_partial(n, k, [1] * n)
            assert poly.coeffs == (stirling_second(n, k),)
            assert type(poly.coeffs[0]) is int


def test_bell_multinomial_division_is_checked(monkeypatch):
    import braidchow.numeric as numeric

    # claim the parts of (1, 1, 1) as two 2s: 3! is no multiple of 2!^2 * 2!
    monkeypatch.setattr(numeric, "multiplicities", lambda parts: {2: 2})
    with pytest.raises(ArithmeticError, match="3! is not a multiple of 8"):
        bell_partial(3, 3, [1, 1, 1])


def test_bell_insufficient_arguments():
    with pytest.raises(ValueError):
        bell_partial(5, 2, [TPoly.const(1)])


def test_stirling_bell_identity_all():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert stirling_bell_identity_check(n, k)


def test_stirling_bell_identity_42_value():
    lhs = bell_partial(4, 2, [omega_shifted(i) for i in range(1, 4)])
    assert TPoly((0, 0, 1)) * lhs == TPoly((0, 0, 11, -18, 7))


def test_bell_limit_formula():
    for n in range(2, 13):
        for k in range(1, n):
            poly = bell_partial(n, k, [omega_shifted(i) for i in range(1, n - k + 2)])
            value = poly.divexact(T_MINUS_ONE).eval(1)
            expected = Fraction(
                factorial(n) * (-1) ** (n - k - 1) * factorial(n - k - 1),
                factorial(k - 1) * factorial(n - k + 1),
            )
            assert value == expected


def test_verify_builds_each_bell_polynomial_once(monkeypatch):
    # the Stirling-Bell identity, the Bell route and the t -> 1 limit check
    # all read the one cached table
    built = []
    original = numeric.bell_partial

    def counting(n, k, xs):
        built.append((n, k))
        return original(n, k, xs)

    monkeypatch.setattr(numeric, "bell_partial", counting)
    numeric.bell_omega.cache_clear()
    try:
        results = checks.run_all(8, report=lambda line: None)
    finally:
        numeric.bell_omega.cache_clear()  # drop what the counting wrapper built
    assert all(message is None for _name, message in results)
    assert sorted(built) == [(n, k) for n in range(1, 9) for k in range(1, n + 1)]
