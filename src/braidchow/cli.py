"""Command-line interface.

Subcommands:

- ``table``    equivariant Chow polynomials per degree (Schur or power-sum basis)
- ``numeric``  rank polynomials H_n^num and Euler characteristics, by any route
- ``m-series`` the open-curves input series
- ``strata``   level-tree counts and the stratum-sum polynomial for one degree
- ``verify``   run the full self-verification suite

Exit codes: 0 on success, 1 when a verification or cross-route assertion
fails, 2 on usage errors and on output that cannot be written.  All numbers
are emitted as exact strings.

Each command imports the modules it computes with inside its own body; at
module level this file loads only ``argparse``, ``errno``, ``gc``, ``os``,
``sys`` and ``serialize``.  So ``--help`` and ``strata`` compile no solver,
``numeric --method lattice`` (or ``stirling`` or ``bell``) no plethysm
engine, and ``table`` neither ``numeric`` nor ``combinat``; no command that
builds no Fraction loads ``fractions`` or ``json``.  Names are bound by a
plain ``from ... import`` at call time, never cached here, so a rebinding of
``solver.solve_B`` and the like takes effect.

A process starts at `run`, which turns the cyclic garbage collector off
(``python -m braidchow`` turns it off before its first import); `main`
leaves it as it finds it.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys

from . import serialize

METHODS = ("solve", "stirling", "bell", "lattice", "strata", "all")
MAX_N = 12  # the --max-n cap
# strata --n: its chain_count walks the set-partition lattice; strata --n 8
# takes about 0.4 s, and n = 9 would take about 2.5 s
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


def _write_stdout(text: str):
    """The one place stdout is written.  A failed write (a full disk, a
    closed pipe) is an error of the environment, not a failed verification:
    exit 2 with one line on stderr."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"braidchow: error: cannot write stdout: {exc.strerror or exc}\n")
        raise SystemExit(2)


def _print(line: str):
    _write_stdout(line + "\n")


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _output_error(output, exc.strerror)
    else:
        _write_stdout(text if text.endswith("\n") else text + "\n")


def _quote(s: str) -> str:
    """``json.dumps(s)``.  Printable ASCII with no quote or backslash, which
    every key and rational string of a payload is, needs no escape; any
    other string goes through the routine ``json.dumps`` uses, so ``json`` is
    loaded only for a string that needs it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for payloads of lists,
    dicts with str keys, strs and ints.  ``json.dumps`` with an indent always
    takes the pure-Python encoder; this writer does the same work in fewer
    steps without loading ``json``, and quotes strings with `_quote`."""
    chunks: list[str] = []
    _put_json(obj, "\n", chunks.append)
    return "".join(chunks)


def _put_json(obj, newline: str, put):
    kind = obj.__class__
    if kind is str:
        put(_quote(obj))
    elif kind is int:
        put(int.__repr__(obj))
    elif not obj and (kind is list or kind is dict):
        put("[]" if kind is list else "{}")
    elif kind is list:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _put_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif kind is dict:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if key.__class__ is not str:
                raise TypeError(f"JSON keys must be str, got {key!r}")
            put(sep + _quote(key) + ": ")
            _put_json(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def _emit_series(series, args: argparse.Namespace):
    """Components 2..max_n of a series in the p-basis, as JSON records or CSV."""
    components = {n: series.component(n) for n in range(2, args.max_n + 1)}
    if args.format == "csv":
        _emit(serialize.series_csv(components), args.output)
    else:
        payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
        _emit(_json(payload), args.output)


def cmd_table(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    if args.basis == "p" and args.format == "latex":
        parser.error("latex output is only available in the schur basis")
    _check_output(args.output)
    from .pointcounts import m_series
    from .solver import solve_B

    B = solve_B(m_series(args.max_n))
    if args.basis == "p":
        _emit_series(B, args)
        return 0
    from .characters import schur_expand

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
    from .numeric import hnum_bell, hnum_lattice, hnum_stirling

    tables = {}
    if method in ("solve", "all"):
        from .pointcounts import m_series
        from .solver import hnum_from_solver, solve_B

        tables["solve"] = hnum_from_solver(solve_B(m_series(max_n)))
    if method in ("stirling", "all"):
        tables["stirling"] = hnum_stirling(max_n)
    if method in ("bell", "all"):
        tables["bell"] = hnum_bell(max_n)
    if method in ("lattice", "all"):
        tables["lattice"] = hnum_lattice(max_n)
    if method in ("strata", "all"):
        from .leveltrees import epoly_Bn

        tables["strata"] = {n: epoly_Bn(n) for n in range(2, max_n + 1)}
    return tables


def cmd_numeric(args: argparse.Namespace, parser) -> int:
    _check_max_n(args.max_n, parser)
    _check_output(args.output)
    from .numeric import euler_chars

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
    from .pointcounts import m_series

    _emit_series(m_series(args.max_n), args)
    return 0


def cmd_strata(args: argparse.Namespace, parser) -> int:
    if not 2 <= args.n <= STRATA_MAX_N:
        parser.error(f"strata enumeration supports 2 <= n <= {STRATA_MAX_N}")
    _check_output(args.output)
    from .leveltrees import chain_count, epoly_Bn, level_tree_census

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
    from . import checks

    results = checks.run_all(args.max_n, report=_print)
    failures = [(name, msg) for name, msg in results if msg is not None]
    if failures:
        name, msg = failures[0]
        _print(f"verification failed: {name}: {msg}")
        return 1
    _print(f"all {len(results)} checks passed (max_n = {args.max_n})")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse writes help and usage to stdout itself and drops a failed
    write; this sends them through `_write_stdout`.  Subparsers take the
    class of their parent, so every command's --help goes the same way."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def run(argv: list[str] | None = None) -> int:
    """The process entry point (``python -m braidchow`` and the ``braidchow``
    script): `main` with the cyclic garbage collector off.

    A run builds packed ints, tuples and dicts that form almost no reference
    cycles, so the collector's passes find nothing to free; at exit the heap
    is frozen, so the interpreter's shutdown collection has nothing to walk.
    Nothing is lost by skipping them: ``--output`` is closed by ``with``,
    `_write_stdout` flushes stdout, and braidchow defines no ``__del__``.
    `main` itself leaves the collector alone, for in-process callers."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
