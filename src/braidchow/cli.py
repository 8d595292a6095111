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
import json
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    max_n: int = 8
    method: str = "all"
    basis: str = "schur"
    format: str = "json"
    output: str | None = None


def _validate(cfg: RunConfig, parser: argparse.ArgumentParser, strata_cap: bool = False):
    if not 2 <= cfg.max_n <= 12:
        parser.error(f"--max-n must be between 2 and 12, got {cfg.max_n}")
    if strata_cap and cfg.max_n > 7:
        parser.error("strata enumeration is capped at n = 7")


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # exit code 1 means a failed verification; an unwritable path is usage
            sys.stderr.write(f"braidchow: error: cannot write --output {output}: {exc.strerror}\n")
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


def cmd_table(cfg: RunConfig, parser) -> int:
    _validate(cfg, parser)
    B = solve_B(m_series(cfg.max_n))
    if cfg.basis == "p":
        components = {n: B.component(n) for n in range(2, cfg.max_n + 1)}
        if cfg.format == "json":
            payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
            _emit(_json(payload), cfg.output)
        elif cfg.format == "csv":
            _emit(serialize.series_csv(components), cfg.output)
        else:
            parser.error("latex output is only available in the schur basis")
        return 0
    tables = {n: schur_expand(B.component(n), n) for n in range(2, cfg.max_n + 1)}
    if cfg.format == "json":
        payload = [serialize.schur_table_to_obj(n, tables[n]) for n in sorted(tables)]
        _emit(_json(payload), cfg.output)
    elif cfg.format == "csv":
        _emit(serialize.schur_tables_csv(tables), cfg.output)
    else:
        _emit(serialize.schur_tables_latex(tables), cfg.output)
    return 0


def _numeric_tables(cfg: RunConfig) -> dict[str, dict]:
    tables = {}
    if cfg.method in ("solve", "all"):
        tables["solve"] = hnum_from_solver(solve_B(m_series(cfg.max_n))).hnum
    if cfg.method in ("stirling", "all"):
        tables["stirling"] = hnum_stirling(cfg.max_n).hnum
    if cfg.method in ("bell", "all"):
        tables["bell"] = hnum_bell(cfg.max_n).hnum
    if cfg.method in ("lattice", "all"):
        tables["lattice"] = hnum_lattice(cfg.max_n).hnum
    if cfg.method == "strata" or (cfg.method == "all" and cfg.max_n <= 7):
        tables["strata"] = {n: epoly_Bn(n) for n in range(2, cfg.max_n + 1)}
    return tables


def cmd_numeric(cfg: RunConfig, parser) -> int:
    _validate(cfg, parser, strata_cap=cfg.method == "strata")
    tables = _numeric_tables(cfg)
    chi = euler_chars(cfg.max_n)
    mismatches = []
    for n in range(2, cfg.max_n + 1):
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
    if cfg.format == "csv":
        _emit(serialize.numeric_csv(rows), cfg.output)
    else:
        _emit(_json(payload), cfg.output)
    if mismatches:
        for n, diff in mismatches:
            sys.stderr.write(f"route mismatch at n={n}: {diff}\n")
        return 1
    return 0


def cmd_m_series(cfg: RunConfig, parser) -> int:
    _validate(cfg, parser)
    M = m_series(cfg.max_n)
    components = {n: M.component(n) for n in range(2, cfg.max_n + 1)}
    if cfg.format == "csv":
        _emit(serialize.series_csv(components), cfg.output)
    else:
        payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
        _emit(_json(payload), cfg.output)
    return 0


def cmd_strata(n: int, count_only: bool, output: str | None, parser) -> int:
    if not 2 <= n <= 7:
        parser.error("strata enumeration supports 2 <= n <= 7")
    census = level_tree_census(n)
    payload = {
        "n": n,
        "counts": {str(length): census[length] for length in sorted(census)},
        "total": sum(census.values()),
        "chain_count": chain_count(n),
    }
    if not count_only:
        payload["epoly"] = serialize.poly_strings(epoly_Bn(n))
    _emit(_json(payload), output)
    return 0


def cmd_verify(cfg: RunConfig, parser) -> int:
    _validate(cfg, parser)
    results = checks.run_all(cfg.max_n)
    failures = [(name, msg) for name, msg in results if msg is not None]
    if failures:
        name, msg = failures[0]
        print(f"verification failed: {name}: {msg}")
        return 1
    print(f"all {len(results)} checks passed (max_n = {cfg.max_n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidchow",
        description="Equivariant Chow polynomials of braid matroids, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False):
        p.add_argument("--max-n", type=int, default=8, dest="max_n")
        p.add_argument("--format", choices=("json", "csv", "latex"), default="json")
        p.add_argument("--output", default=None)
        if method:
            p.add_argument("--method", choices=METHODS, default="all")

    p_table = sub.add_parser("table", help="equivariant Chow polynomials")
    common(p_table)
    p_table.add_argument("--basis", choices=("schur", "p"), default="schur")

    p_num = sub.add_parser("numeric", help="rank polynomials and Euler characteristics")
    common(p_num, method=True)

    p_m = sub.add_parser("m-series", help="the open-curves input series")
    common(p_m)

    p_strata = sub.add_parser("strata", help="level-tree census and stratum sums")
    p_strata.add_argument("--n", type=int, required=True)
    p_strata.add_argument("--count-only", action="store_true")
    p_strata.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "strata":
        return cmd_strata(args.n, args.count_only, args.output, parser)
    cfg = RunConfig(
        max_n=args.max_n,
        method=getattr(args, "method", "all"),
        basis=getattr(args, "basis", "schur"),
        format=getattr(args, "format", "json"),
        output=getattr(args, "output", None),
    )
    if args.command == "table":
        return cmd_table(cfg, parser)
    if args.command == "numeric":
        return cmd_numeric(cfg, parser)
    if args.command == "m-series":
        return cmd_m_series(cfg, parser)
    if args.command == "verify":
        return cmd_verify(cfg, parser)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
