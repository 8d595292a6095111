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

The command line is described once, in `COMMANDS`, a table of each
command's options.  A plain argv (the command, then each flag spelled out
in full with a value its option accepts) is read from that table directly;
every other argv, and every usage error, goes to argparse parsers built
from the same table.  So ``argparse``, and through it ``gettext`` and
``locale``, loads only for help, usage errors, abbreviations, ``=`` and
``--``, and never on a plain run.

Each command imports the modules it computes with inside its own body; at
module level this file loads only ``errno``, ``gc``, ``os``, ``sys``,
``types`` (loaded at start-up anyway) and ``serialize``.  So ``--help`` and
``strata`` compile no solver,
``numeric --method lattice`` (or ``stirling`` or ``bell``) no plethysm
engine, ``table`` neither ``numeric`` nor ``combinat``, and no command but
``verify`` compiles ``checks``; no command that builds no Fraction loads
``fractions`` or ``json``.  Names are bound by a plain ``from ... import``
at call time, never cached here, so a rebinding of ``solver.solve_B`` and
the like takes effect.

A process starts at `run`, which turns the cyclic garbage collector off
(``python -m braidchow`` turns it off before its first import) and, once
`main` has returned, ends the process at once; `main` leaves the collector
as it finds it and returns.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from types import SimpleNamespace

from . import serialize

METHODS = ("solve", "stirling", "bell", "lattice", "strata", "all")
MAX_N = 12  # the --max-n cap
# strata --n: its chain_count walks the set-partition lattice; strata --n 8
# takes about 0.4 s, and n = 9 would take about 2.5 s
STRATA_MAX_N = 8


def _check_max_n(max_n: int, command: str):
    if not 2 <= max_n <= MAX_N:
        _usage_error(command, f"--max-n must be between 2 and {MAX_N}, got {max_n}")


def _output_error(output: str, reason: str):
    # exit code 1 means a failed verification; an unwritable path is usage
    sys.stderr.write(f"braidchow: error: cannot write --output {output}: {reason}\n")
    raise SystemExit(2)


def _check_output(output: str | None):
    """Reject an --output that cannot be written before anything is computed;
    the file is neither created nor truncated here."""
    if output is None:
        return
    if not output:
        _output_error("''", "empty path")
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


def _stdout_error(reason: str):
    sys.stderr.write(f"braidchow: error: cannot write stdout: {reason}\n")
    raise SystemExit(2)


def _write_stdout(text: str):
    """The one place stdout is written.  A failed write (a full disk, a
    closed pipe) is an error of the environment, not a failed verification:
    exit 2 with one line on stderr.  A stdout closed before the interpreter
    started (``>&-``) is None; writing text there is such a failed write,
    and writing nothing is not."""
    out = sys.stdout
    if out is None:
        if text:
            _stdout_error(os.strerror(errno.EBADF))
        return
    try:
        out.write(text)
        out.flush()
    except OSError as exc:
        if out is sys.__stdout__:
            # the interpreter flushes its stdout again at exit, where what
            # the failed write left in the buffer would fail once more (exit
            # code 120 and a second message): send it to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        _stdout_error(exc.strerror or exc)


def _print(line: str):
    _write_stdout(line + "\n")


def _emit(text: str, output: str | None):
    if output is not None:
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


def _emit_series(series, args: SimpleNamespace):
    """Components 2..max_n of a series in the p-basis, as JSON records or CSV."""
    components = {n: series.component(n) for n in range(2, args.max_n + 1)}
    if args.format == "csv":
        _emit(serialize.series_csv(components), args.output)
    else:
        payload = [serialize.series_to_obj(n, components[n]) for n in sorted(components)]
        _emit(_json(payload), args.output)


def cmd_table(args: SimpleNamespace) -> int:
    _check_max_n(args.max_n, "table")
    if args.basis == "p" and args.format == "latex":
        _usage_error("table", "latex output is only available in the schur basis")
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


def cmd_numeric(args: SimpleNamespace) -> int:
    _check_max_n(args.max_n, "numeric")
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


def cmd_m_series(args: SimpleNamespace) -> int:
    _check_max_n(args.max_n, "m-series")
    _check_output(args.output)
    from .pointcounts import m_series

    _emit_series(m_series(args.max_n), args)
    return 0


def cmd_strata(args: SimpleNamespace) -> int:
    if not 2 <= args.n <= STRATA_MAX_N:
        _usage_error("strata", f"strata enumeration supports 2 <= n <= {STRATA_MAX_N}")
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


def cmd_verify(args: SimpleNamespace) -> int:
    _check_max_n(args.max_n, "verify")
    from . import checks

    results = checks.run_all(args.max_n, report=_print)
    failures = [(name, msg) for name, msg in results if msg is not None]
    if failures:
        name, msg = failures[0]
        _print(f"verification failed: {name}: {msg}")
        return 1
    _print(f"all {len(results)} checks passed (max_n = {args.max_n})")
    return 0


# The command line as data: command -> (help, options).  An option is (flag,
# kind, default): kind is int or str for an option that takes a value, a
# tuple for one that takes one of those choices, or bool for a flag that
# takes none; a default of ... makes the option required.  A value lands on
# the attribute its flag names ("--max-n" -> args.max_n), and a command runs
# cmd_<name> ("m-series" -> cmd_m_series).
_MAX_N = ("--max-n", int, 8)
_OUTPUT = ("--output", str, None)
COMMANDS = {
    "table": (
        "equivariant Chow polynomials",
        # only tables have a LaTeX writer
        (_MAX_N, ("--format", ("json", "csv", "latex"), "json"), _OUTPUT, ("--basis", ("schur", "p"), "schur")),
    ),
    "numeric": (
        "rank polynomials and Euler characteristics",
        (_MAX_N, ("--format", ("json", "csv"), "json"), _OUTPUT, ("--method", METHODS, "all")),
    ),
    "m-series": ("the open-curves input series", (_MAX_N, ("--format", ("json", "csv"), "json"), _OUTPUT)),
    "strata": (
        "level-tree census and stratum sums",
        (("--n", int, ...), ("--count-only", bool, False), _OUTPUT),
    ),
    "verify": ("run the self-verification suite", (_MAX_N,)),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _plain(argv: list[str]) -> tuple[str, dict] | None:
    """The command and option values of a plain ``argv``, else None.

    An argv is plain when it is a command, then flags spelled out in full,
    each that takes a value followed by one that does not start with "-"
    and that the option accepts (``int`` parses it, or it is one of the
    choices), with every required option given.  argparse reads such an argv
    the same way, the last repeat winning; every other argv goes to it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, _default in options}
    values = {_dest(flag): default for flag, _kind, default in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is bool:
            values[_dest(flag)] = True
            continue
        value = next(tokens, "-")
        if kind is None or value[:1] == "-" or isinstance(kind, tuple) and value not in kind:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[_dest(flag)] = value
    return None if ... in values.values() else (argv[0], values)


def _argparse_parsers():
    """The argparse parser of `COMMANDS` and its subparser of each command.

    Built only for an argv that is not plain and for a usage error, so no
    plain run loads ``argparse``.  Help goes to stdout through
    `_write_stdout`; a fixed width keeps each usage on one line."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _get_formatter(self):
            return argparse.HelpFormatter(self.prog, width=1000)

        def _print_message(self, message, file=None):
            if message and file is sys.stdout:
                _write_stdout(message)
            else:
                super()._print_message(message, file)

    top = Parser(prog="braidchow", description="Equivariant Chow polynomials of braid matroids, exactly.")
    commands = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (about, options) in COMMANDS.items():
        parser = parsers[name] = commands.add_parser(name, help=about, description=about)
        for flag, kind, default in options:
            if kind is bool:
                parser.add_argument(flag, action="store_true")
            elif default is ...:
                parser.add_argument(flag, type=kind, required=True, help="required")
            else:
                note = None if default is None else f"default: {default}"
                typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                parser.add_argument(flag, default=default, help=note, **typed)
    return top, parsers


def _usage_error(command: str, message: str):
    """Print ``command``'s usage line and ``message`` on stderr and exit 2,
    through its argparse subparser."""
    _argparse_parsers()[1][command].error(message)


def parse(argv: list[str]) -> tuple[str, dict]:
    """The command ``argv`` names, and its option values.  A plain argv is
    read by `_plain`; any other goes to argparse, whose errors print the
    usage line of the command they are in."""
    plain = _plain(argv)
    if plain is not None:
        return plain
    top, parsers = _argparse_parsers()
    namespace, unknown = top.parse_known_args(argv)
    values = vars(namespace)
    command = values.pop("command")
    if unknown:
        parsers[command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return command, values


def main(argv: list[str] | None = None) -> int:
    command, values = parse(sys.argv[1:] if argv is None else list(argv))
    return globals()["cmd_" + command.replace("-", "_")](SimpleNamespace(**values))


def _hooked() -> bool:
    """Whether a trace, profile or monitoring hook is set.  From Python 3.12
    on, ``cProfile`` registers through ``sys.monitoring`` and leaves
    ``sys.getprofile()`` at None."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run(argv: list[str] | None = None) -> int:
    """The process entry point (``python -m braidchow`` and the ``braidchow``
    script): `main` with the cyclic garbage collector off, then an immediate
    end of the process with `main`'s exit code.

    A run builds packed ints, tuples and dicts that form almost no reference
    cycles, so the collector's passes would find nothing to free.  Once
    `main` has returned, stdout and stderr are flushed and ``os._exit`` ends
    the process, skipping the interpreter's teardown: nothing is lost, since
    ``--output`` is closed by ``with``, every stream is flushed, and
    braidchow registers no ``atexit`` handler and defines no ``__del__``.
    A `SystemExit` from `main` (a usage error, a failed write) propagates to
    a normal exit, and under a trace or profile hook (coverage, ``cProfile``)
    `run` returns the code, so the hook's own report at exit still runs.  `main`
    itself leaves the collector alone, for in-process callers."""
    gc.disable()
    code = main(argv)
    if not _hooked():
        _write_stdout("")  # flushes; a failed flush exits 2 like any failed write
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
