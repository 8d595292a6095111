"""Exact serialization: JSON/CSV records with rational strings, LaTeX rows.

Coefficients are emitted as exact strings ("3", "-1/2"); nothing ever goes
through floating point.  Terms and rows follow the canonical order
(partition degree, then reverse-lexicographic partition, then t-exponent),
so output is byte-deterministic for a fixed input.

This module holds only writers: no command reads JSON.  The "serialization
round-trip" check in ``checks`` reads the JSON records back through the
``SymSeries`` and ``TPoly`` constructors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .partitions import Partition
from .tpoly import TPoly, format_poly

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
