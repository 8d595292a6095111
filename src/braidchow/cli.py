"""Command-line interface.

Subcommands:

- ``table``    equivariant Chow polynomials per degree (Schur or power-sum basis)
- ``numeric``  rank polynomials H_n^num and Euler characteristics, by any route
- ``m-series`` the open-curves input series
- ``strata``   level-tree counts and the stratum-sum polynomial for one degree
- ``verify``   run the full self-verification suite

Exit codes: 0 on success, 1 when a verification or cross-route assertion
fails, 2 on usage errors.  All numbers are emitted as exact strings.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import checks, serialize
from .characters import schur_expand
from .leveltrees import chain_count, epoly_Bn, level_tree_census
from .pointcounts import m_series
from .solver import (
    euler_chars,
    hnum_bell,
    hnum_from_solver,
    hnum_lattice,
    hnum_stirling,
    solve_B,
)

METHODS = ("solve", "stirling", "bell", "lattice", "strata", "all")
MAX_N = 12  # the --max-n cap
# strata --n: its chain_count walks the set-partition lattice; strata --n 8
# takes about 0.5 s, and n = 9 would take about 4 s
STRATA_MAX_N = 8


def _check_max_n(max_n: int, parser: argparse.ArgumentParser):
    if not 2 <= max_n <= MAX_N:
        parser.error(f"--max-n must be between 2 and {MAX_N}, got {max_n}")


def _output_error(output: str, reason: str):
    # exit code 1 means a failed verification; an unwritable path is usage
    sys.stderr.write(f"braidchow: error: cannot write --output {output}: {reason}\n")
    raise SystemExit(2)


def _check_output(output: str | None):
    """Reject an --output that cannot be written before anything is computed;
    the file is neither created nor truncated here."""
    if not output:
        return
    parent = os.path.dirname(os.path.abspath(output))
    if os.path.isdir(output):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    _output_error(output, os.strerror(err))


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _output_error(output, exc.strerror)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


def cmd_table(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    if args.basis == "p" and args.format == "latex":
        parser.error("latex output is only available in the schur basis")
    _check_output(args.output)
    B = solve_B(m_series(args.max_n))
    if args.basis == "p":
        components = {n: B.component(n) for n in range(2, args.max_n + 1)}
        if args.format == "json":
            payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
            _emit(_json(payload), args.output)
        else:
            _emit(serialize.series_csv(components), args.output)
        return 0
    tables = {n: schur_expand(B.component(n), n) for n in range(2, args.max_n + 1)}
    if args.format == "json":
        payload = [serialize.schur_table_to_obj(n, tables[n]) for n in sorted(tables)]
        _emit(_json(payload), args.output)
    elif args.format == "csv":
        _emit(serialize.schur_tables_csv(tables), args.output)
    else:
        _emit(serialize.schur_tables_latex(tables), args.output)
    return 0


def _numeric_tables(max_n: int, method: str) -> dict[str, dict]:
    tables = {}
    if method in ("solve", "all"):
        tables["solve"] = hnum_from_solver(solve_B(m_series(max_n)))
    if method in ("stirling", "all"):
        tables["stirling"] = hnum_stirling(max_n)
    if method in ("bell", "all"):
        tables["bell"] = hnum_bell(max_n)
    if method in ("lattice", "all"):
        tables["lattice"] = hnum_lattice(max_n)
    if method in ("strata", "all"):
        tables["strata"] = {n: epoly_Bn(n) for n in range(2, max_n + 1)}
    return tables


def cmd_numeric(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    _check_output(args.output)
    tables = _numeric_tables(args.max_n, args.method)
    chi = euler_chars(args.max_n)
    mismatches = []
    for n in range(2, args.max_n + 1):
        values = {name: h[n] for name, h in tables.items() if n in h}
        if len({tuple(p.coeffs) for p in values.values()}) > 1:
            mismatches.append((n, {name: str(p) for name, p in values.items()}))
        for name, p in values.items():
            if p.eval(1) != chi[n]:
                mismatches.append((n, {name: str(p), "chi": str(chi[n])}))
    reference = tables["stirling"] if "stirling" in tables else tables[next(iter(tables))]
    rows = [
        serialize.numeric_to_obj(n, reference[n], chi[n])
        for n in sorted(reference)
        if n >= 1
    ]
    payload = {"methods": sorted(tables), "rows": rows}
    if args.format == "csv":
        _emit(serialize.numeric_csv(rows), args.output)
    else:
        _emit(_json(payload), args.output)
    if mismatches:
        for n, diff in mismatches:
            sys.stderr.write(f"route mismatch at n={n}: {diff}\n")
        return 1
    return 0


def cmd_m_series(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    _check_output(args.output)
    M = m_series(args.max_n)
    components = {n: M.component(n) for n in range(2, args.max_n + 1)}
    if args.format == "csv":
        _emit(serialize.series_csv(components), args.output)
    else:
        payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
        _emit(_json(payload), args.output)
    return 0


def cmd_strata(args: argparse.Namespace, parser) -> int:
    if not 2 <= args.n <= STRATA_MAX_N:
        parser.error(f"strata enumeration supports 2 <= n <= {STRATA_MAX_N}")
    _check_output(args.output)
    census = level_tree_census(args.n)
    payload = {
        "n": args.n,
        "counts": {str(length): census[length] for length in sorted(census)},
        "total": sum(census.values()),
        "chain_count": chain_count(args.n),
    }
    if not args.count_only:
        payload["epoly"] = serialize.poly_strings(epoly_Bn(args.n))
    _emit(_json(payload), args.output)
    return 0


def cmd_verify(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    results = checks.run_all(args.max_n)
    failures = [(name, msg) for name, msg in results if msg is not None]
    if failures:
        name, msg = failures[0]
        print(f"verification failed: {name}: {msg}")
        return 1
    print(f"all {len(results)} checks passed (max_n = {args.max_n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidchow",
        description="Equivariant Chow polynomials of braid matroids, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv"), method=False):
        p.add_argument("--max-n", type=int, default=8, dest="max_n")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None)
        if method:
            p.add_argument("--method", choices=METHODS, default="all")

    p_table = sub.add_parser("table", help="equivariant Chow polynomials")
    common(p_table, formats=("json", "csv", "latex"))  # only tables have a LaTeX writer
    p_table.add_argument("--basis", choices=("schur", "p"), default="schur")
    p_table.set_defaults(func=cmd_table)

    p_num = sub.add_parser("numeric", help="rank polynomials and Euler characteristics")
    common(p_num, method=True)
    p_num.set_defaults(func=cmd_numeric)

    p_m = sub.add_parser("m-series", help="the open-curves input series")
    common(p_m)
    p_m.set_defaults(func=cmd_m_series)

    p_strata = sub.add_parser("strata", help="level-tree census and stratum sums")
    p_strata.add_argument("--n", type=int, required=True)
    p_strata.add_argument("--count-only", action="store_true")
    p_strata.add_argument("--output", default=None)
    p_strata.set_defaults(func=cmd_strata)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
