import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from braidchow.partitions import is_partition, merge, multiplicities, partitions_of, z_lambda


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_three_reverse_lex():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partition_counts():
    # independent oracle: recursive count p(n, max part k)
    def count(n, k):
        if n == 0:
            return 1
        return sum(count(n - j, j) for j in range(1, min(n, k) + 1))

    for n in range(11):
        assert len(partitions_of(n)) == count(n, n)
    assert len(partitions_of(6)) == 11


@given(st.integers(min_value=0, max_value=9))
def test_partitions_are_valid_and_distinct(n):
    parts = partitions_of(n)
    assert len(set(parts)) == len(parts)
    for lam in parts:
        assert is_partition(lam)
        assert sum(lam) == n


def test_reverse_lex_order():
    for n in range(9):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)


@pytest.mark.parametrize(
    "lam,expected",
    [((2, 1), 2), ((3,), 3), ((1, 1, 1, 1), 24), ((2, 2), 8), ((3, 2, 2, 1), 24)],
)
def test_z_lambda_values(lam, expected):
    assert z_lambda(lam) == expected


def test_z_lambda_identity_partition():
    for n in range(1, 8):
        assert z_lambda((1,) * n) == factorial(n)


def test_z_lambda_sums_to_factorial():
    # sum over partitions of n of n!/z_lambda = number of permutations
    for n in range(1, 9):
        assert sum(factorial(n) // z_lambda(lam) for lam in partitions_of(n)) == factorial(n)
        for lam in partitions_of(n):
            assert factorial(n) % z_lambda(lam) == 0


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert multiplicities(()) == {}


def test_merge():
    assert merge((2, 1), (3, 1)) == (3, 2, 1, 1)
    assert merge((), (5,)) == (5,)


def test_partitions_of_leaves_no_reference_cycle():
    # the command-line entry point runs with the cyclic collector off
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import gc\ngc.disable()\n"
        "from braidchow.partitions import partitions_of\n"
        "gc.collect()\npartitions_of.cache_clear()\npartitions_of(8)\n"
        "print(gc.collect())\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
