"""The registered checks signal failure with CheckFailed, never ``assert``,
so a broken program fails ``verify`` also under ``python -O``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidchow import checks, combinat, symseries

SRC = Path(__file__).resolve().parents[1] / "src"

# negate the signed Stirling numbers, run every check at --max-n 4, and print
# the interpreter's optimization level and the names of the failed checks
NEGATED_STIRLING_RUN = """
import json, sys
from braidchow import checks, combinat
original = combinat.stirling_first_signed
combinat.stirling_first_signed = lambda n, k: -original(n, k)
results = checks.run_all(4, report=lambda line: None)
failed = sorted(name for name, message in results if message is not None)
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""


@pytest.mark.parametrize("flags, optimize", [([], 0), (["-O"], 1)], ids=["plain", "-O"])
def test_broken_stirling_numbers_fail_under_every_optimization_level(flags, optimize):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NEGATED_STIRLING_RUN],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": optimize,
        "failed": ["stirling triangle inversion", "stirling-bell identity"],
    }


def test_check_raises_check_failed_with_the_failing_case(monkeypatch):
    original = combinat.stirling_first_signed
    monkeypatch.setattr(combinat, "stirling_first_signed", lambda n, k: -original(n, k))
    with pytest.raises(checks.CheckFailed, match=r"triangle inversion fails at \(0, 0\)"):
        dict(checks.CHECKS)["stirling triangle inversion"](4)


def test_run_all_reports_each_check_failed_message(monkeypatch):
    def broken(n_max):
        raise checks.CheckFailed(f"broken at {n_max}")

    monkeypatch.setattr(checks, "CHECKS", [("broken", broken)])
    monkeypatch.setitem(checks.VERIFY_BOUNDS, "broken", ((None, 3),))
    lines = []
    assert checks.run_all(8, report=lines.append) == [("broken", "broken at 3")]
    assert lines == ["FAIL broken: broken at 3"]


def test_series_checks_build_no_fraction_term_view(monkeypatch):
    """The level filtration and the functional equation add, subtract,
    divide and compare series in integer form only: with the builder of the
    Fraction view of a series made to raise, both checks still pass."""

    def no_terms(*args):
        raise AssertionError("the Fraction terms of a series were built")

    monkeypatch.setattr(symseries, "_fractions", no_terms)
    checks.check_level_filtration(8)
    checks.check_functional_equation(8)
