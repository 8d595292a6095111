"""The benchmark's workloads: fixed ``braidchow`` argv lists with pinned outputs.

Every invocation carries the exit code and the sha256 of the stdout that the
program produced when the benchmark was defined.  A mismatch is a failed
invocation.  The digests can be re-pinned only by editing this file, so the
``table12`` rows n <= 6 are also compared with the program's reference table
(see ``reference_mismatch``), a check that no re-pinning can silence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_code: int
    stdout_sha256: str
    # the stdout is a ``table`` JSON whose rows n <= 6 must match the reference
    reference_rows: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # The main product at the current degree cap; solver-heavy (plethysm,
    # Schur expansion, input series), no tree or set-partition enumeration.
    "table12": (
        Invocation(
            ("table", "--max-n", "12"),
            0,
            "142ab3db68fae4199f7eb3085f66e89e75ed13f61df2d51b3c8c747dfc47346b",
            reference_rows=True,
        ),
    ),
    # The brute-force oracles: level-tree enumeration and the set-partition
    # lattice; no plethysm at all.
    "oracles": (
        Invocation(
            ("strata", "--n", "6"),
            0,
            "3b69ed4885ee67e3a0de8862b93803354afb9c7e66537319711965960ddd2159",
        ),
        Invocation(
            ("numeric", "--max-n", "9", "--method", "lattice"),
            0,
            "ea531c02e551eb60abdd17f74c54b58845977a69d066e6523450d96cb25102eb",
        ),
    ),
    # Every layer at small bounds: many small solves and plethysms on whole
    # series, plus both oracles.
    "verify8": (
        Invocation(
            ("verify", "--max-n", "8"),
            0,
            "b3bc4647c6e7a8dfbfe73c6268234828c80f3f51acb2405a3cada6545031396f",
        ),
    ),
}


def reference_mismatch(table_json: str, reference: dict) -> str | None:
    """Compare the rows n <= max(reference) of a ``table`` JSON output with the
    reference Schur coefficients; return a message naming the first
    difference, or None when they agree."""
    try:
        rows = {rec["n"]: rec["rows"] for rec in json.loads(table_json)}
    except (ValueError, KeyError, TypeError) as exc:
        return f"table output is not the expected JSON: {exc}"
    for n, want in reference.items():
        if n not in rows:
            return f"table output has no row n={n}"
        got = {
            tuple(row["lambda"]): tuple(Fraction(c) for c in row["poly"]) for row in rows[n]
        }
        want = {lam: tuple(Fraction(c) for c in cs) for lam, cs in want.items()}
        if got != want:
            return f"table row n={n} deviates from the reference table"
    return None
