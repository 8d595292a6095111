"""Fixed reference work that measures how fast the host runs Python right now.

The timed run (``run.py``) pauses each invocation of the program every
``run.PACE_S`` seconds and, while it is stopped, times one ``probe()`` on the
same CPU; it then scales the invocation's time by how long the probes took.
The probe imports nothing from braidchow, so no change to the program changes
it, and its work resembles the program's: dictionaries keyed by (partition,
exponent) holding ``Fraction`` coefficients, multiplied term by term.  One
probe takes about 50 ms: short enough to sample the host's speed several times
a second, with a working set large enough to feel the same cache contention as
the program (a probe a third of this size tracked ``table --max-n 12``
less well).

    python3 perfbench/calibrate.py     # prints the median probe time
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


class CalibrationError(RuntimeError):
    pass


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def series(degree: int, shift: int) -> dict:
    return {
        (p, e): Fraction(len(p) * 7 + e + shift, sum(p[:2]) + e + 3)
        for d in range(1, degree + 1)
        for p in partitions(d)
        for e in range(3)
    }


def work() -> str:
    a, b = series(7, 1), series(6, 2)
    c: dict = {}
    for (p, e), x in a.items():
        for (q, f), y in b.items():
            if len(p) + len(q) <= 7:
                key = (tuple(sorted(p + q, reverse=True)), e + f)
                c[key] = c.get(key, 0) + x * y
    digest = sum(v.numerator % 1000003 + v.denominator % 999983 for v in c.values())
    return f"{len(a)} {len(b)} {len(c)} {digest % 2**32:08x}"


EXPECTED = "132 87 1355 0c4d8945"


def probe() -> float:
    """Wall time of one run of ``work``; raises if it computed something else."""
    start = time.perf_counter()
    line = work()
    elapsed = time.perf_counter() - start
    if line != EXPECTED:
        raise CalibrationError(f"calibration work printed {line!r}, pinned {EXPECTED!r}")
    return elapsed


if __name__ == "__main__":
    print(f"{statistics.median(probe() for _ in range(200)):.5f}")
