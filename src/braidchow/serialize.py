"""Exact serialization: JSON/CSV records with rational strings, LaTeX rows.

Coefficients are emitted as exact strings ("3", "-1/2"); nothing ever goes
through floating point.  Terms and rows follow the canonical order
(partition degree, then reverse-lexicographic partition, then t-exponent),
so output is byte-deterministic for a fixed input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .partitions import Partition, is_partition
from .tpoly import TPoly, check_exponent, format_poly

if TYPE_CHECKING:
    from .symseries import SymSeries


def _schur_row_order(lam: Partition):
    return tuple(-p for p in lam)


# -- SymSeries records ---------------------------------------------------------


def series_to_obj(n: int, s: SymSeries) -> dict:
    terms = [
        {"partition": list(parts), "t": k, "coeff": str(c)}
        for (parts, k), c in s.sorted_terms()
    ]
    return {"n": n, "terms": terms}


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _exact(value, what: str) -> Fraction:
    """An exact coefficient: an int (not a bool) or a rational string such as
    "3" or "-1/2".  Floats, decimal strings and anything else raise ValueError
    naming ``what``."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"{what}: zero denominator")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"{what}: coefficient must be an int or an exact rational string")


def _partition(value, what: str) -> Partition:
    """A list of weakly decreasing positive ints (not bools) as a partition."""
    if isinstance(value, list) and is_partition(tuple(value)):
        return tuple(value)
    raise ValueError(f"{what}: partition must be a list of weakly decreasing positive ints")


def _record(obj, keys: tuple[str, ...], what: str) -> tuple:
    """The values of ``keys`` in the JSON object ``obj``; ValueError if it is
    not a dict or lacks one of them."""
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise ValueError(f"{what}: expected an object with keys {', '.join(keys)}")
    return tuple(obj[key] for key in keys)


def _degree(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{what}: n must be a non-negative integer")
    return value


def series_from_obj(obj: dict, n_max: int | None = None) -> SymSeries:
    """Inverse of ``series_to_obj``; duplicate terms are summed.  Every
    malformed record raises ValueError naming it."""
    from .symseries import SymSeries

    (records,) = _record(obj, ("terms",), "series record")
    if n_max is None:
        (n_max,) = _record(obj, ("n",), "series record")
    n_max = _degree(n_max, "series record")
    if not isinstance(records, list):
        raise ValueError("series record: terms must be a list")
    terms = {}
    for rec in records:
        what = f"term {rec!r}"
        parts, t, coeff = _record(rec, ("partition", "t", "coeff"), what)
        parts = _partition(parts, what)
        if sum(parts) > n_max:
            raise ValueError(f"{what}: partition sums past {n_max}")
        key = (parts, check_exponent(t, what))
        terms[key] = terms.get(key, Fraction(0)) + _exact(coeff, what)
    return SymSeries(n_max, terms)


# -- Schur coefficient tables --------------------------------------------------


def poly_strings(p: TPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def schur_table_to_obj(n: int, table: dict[Partition, TPoly]) -> dict:
    rows = [
        {"lambda": list(lam), "poly": poly_strings(table[lam])}
        for lam in sorted(table, key=_schur_row_order)
        if table[lam]
    ]
    return {"n": n, "rows": rows}


def schur_table_from_obj(obj: dict) -> dict[Partition, TPoly]:
    """Inverse of ``schur_table_to_obj``: one row per partition of n, exact
    coefficients; zero rows are dropped.  Every malformed record raises
    ValueError naming it."""
    n, rows = _record(obj, ("n", "rows"), "table record")
    n = _degree(n, "table record")
    if not isinstance(rows, list):
        raise ValueError("table record: rows must be a list")
    table = {}
    for row in rows:
        what = f"row {row!r}"
        lam, coeffs = _record(row, ("lambda", "poly"), what)
        lam = _partition(lam, what)
        if sum(lam) != n:
            raise ValueError(f"{what}: lambda must be a partition of {n}")
        if lam in table:
            raise ValueError(f"{what}: lambda appears twice")
        if not isinstance(coeffs, list):
            raise ValueError(f"{what}: poly must be a list of coefficients")
        table[lam] = TPoly([_exact(c, what) for c in coeffs])
    return {lam: poly for lam, poly in table.items() if poly}


def numeric_to_obj(n: int, hnum: TPoly, chi: int) -> dict:
    return {"n": n, "hnum": poly_strings(hnum), "chi": chi}


# -- LaTeX ---------------------------------------------------------------------


def schur_symbol(lam: Partition) -> str:
    if max(lam, default=0) >= 10:
        sub = ",".join(str(p) for p in lam)
    else:
        sub = "".join(str(p) for p in lam)
    return f"s_{sub}" if len(sub) == 1 else f"s_{{{sub}}}"


def _t_power(k: int) -> str:
    if k == 0:
        return ""
    return "t" if k == 1 else f"t^{k}"


def schur_table_latex_row(n: int, table: dict[Partition, TPoly]) -> str:
    pieces = []
    for lam in sorted(table, key=_schur_row_order):
        poly = table[lam]
        if not poly:
            continue
        nonzero = [(k, c) for k, c in enumerate(poly.coeffs) if c]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            pieces.append(f"{schur_symbol(lam)}{_t_power(nonzero[0][0])}")
        else:
            pieces.append(f"{schur_symbol(lam)}({format_poly(poly)})")
    return f"${n}$ & ${' + '.join(pieces)}$ \\\\"


def schur_tables_latex(tables: dict[int, dict[Partition, TPoly]]) -> str:
    lines = [
        "\\begin{tabular}{|l|l|}",
        "\\hline",
        "$n$ & equivariant Chow polynomial \\\\ \\hline",
    ]
    for n in sorted(tables):
        lines.append(schur_table_latex_row(n, tables[n]) + " \\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


# -- CSV -----------------------------------------------------------------------


def schur_tables_csv(tables: dict[int, dict[Partition, TPoly]]) -> str:
    lines = ["n,lambda,poly"]
    for n in sorted(tables):
        table = tables[n]
        for lam in sorted(table, key=_schur_row_order):
            if table[lam]:
                lines.append(
                    f"{n},{' '.join(map(str, lam))},{' '.join(poly_strings(table[lam]))}"
                )
    return "\n".join(lines) + "\n"


def series_csv(components: dict[int, SymSeries]) -> str:
    lines = ["n,partition,t,coeff"]
    for n in sorted(components):
        for (parts, k), c in components[n].sorted_terms():
            lines.append(f"{n},{' '.join(map(str, parts))},{k},{c}")
    return "\n".join(lines) + "\n"


def numeric_csv(rows: list[dict]) -> str:
    lines = ["n,hnum,chi"]
    for row in rows:
        lines.append(f"{row['n']},{' '.join(row['hnum'])},{row['chi']}")
    return "\n".join(lines) + "\n"
