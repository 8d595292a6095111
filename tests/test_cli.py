import contextlib
import gc
import hashlib
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from braidchow import characters, checks, cli, leveltrees, numeric, solver
from braidchow.pointcounts import m_series
from braidchow.reference import REFERENCE_TABLE
from braidchow.serialize import schur_table_latex_row, series_to_obj
from braidchow.solver import solve_B
from braidchow.symseries import PlethysmCache, SymSeries
from braidchow.tpoly import TPoly


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


# -- serialization ----------------------------------------------------------------


def test_series_records_are_exact_strings():
    obj = series_to_obj(2, SymSeries.h(2))
    assert obj == {
        "n": 2,
        "terms": [
            {"partition": [2], "t": 0, "coeff": "1/2"},
            {"partition": [1, 1], "t": 0, "coeff": "1/2"},
        ],
    }


def test_latex_row_formatting():
    table = {(4,): TPoly((1, 3, 1)), (3, 1): TPoly((0, 1)), (2, 2): TPoly((0, 1))}
    row = schur_table_latex_row(4, table)
    assert row == "$4$ & $s_4(1 + 3t + t^2) + s_{31}t + s_{22}t$ \\\\"


JSON_VALUES = st.recursive(
    st.one_of(st.text(), st.integers()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        "table --max-n 8",
        "table --max-n 8 --basis p",
        "numeric --max-n 8",
        "m-series --max-n 8",
        "strata --n 5",
        "strata --n 5 --count-only",
    ],
)
def test_json_writer_matches_json_dumps_on_each_payload(capsys, monkeypatch, argv):
    payloads = []
    writer = cli._json

    def recording_json(obj):
        payloads.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_json", recording_json)
    code, out = run_cli(capsys, *argv.split())
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"


# every code point, lone surrogates included
@given(st.text(st.characters(blacklist_categories=())))
@example("")
@example('say "1/2" \\ t')
@example("\x00\x1f\t\n\x7f")
@example("s_λ \u2028 \U0001f600")
@example("\ud800 \udfff")
def test_quote_matches_json_dumps(s):
    assert cli._quote(s) == json.dumps(s)


@pytest.mark.parametrize("obj", [1.5, True, None, (1, 2), {1: "a"}, ["a", {"b": [0.5]}]], ids=repr)
def test_json_writer_rejects_what_no_payload_holds(obj):
    with pytest.raises(TypeError):
        cli._json(obj)


# -- table command -------------------------------------------------------------------


def test_table_matches_reference(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "6")
    assert code == 0
    payload = json.loads(out)
    assert [entry["n"] for entry in payload] == [2, 3, 4, 5, 6]
    for entry in payload:
        got = {
            tuple(row["lambda"]): tuple(Fraction(c) for c in row["poly"])
            for row in entry["rows"]
        }
        want = {
            lam: tuple(Fraction(c) for c in cs)
            for lam, cs in REFERENCE_TABLE[entry["n"]].items()
        }
        assert got == want


def test_table_latex_contains_reference_rows(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "6", "--format", "latex")
    assert code == 0
    assert "$2$ & $s_2$" in out
    assert "$3$ & $s_3(1 + t)$" in out
    assert "s_{42}(9t + 28t^2 + 9t^3)" in out
    assert "s_{3111}t^2" in out


def test_table_p_basis(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "2", "--basis", "p")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "n": 2,
            "terms": [
                {"partition": [2], "t": 0, "coeff": "1/2"},
                {"partition": [1, 1], "t": 0, "coeff": "1/2"},
            ],
        }
    ]


def test_table_byte_deterministic(capsys):
    _code, first = run_cli(capsys, "table", "--max-n", "5")
    _code, second = run_cli(capsys, "table", "--max-n", "5")
    assert first == second


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _out = run_cli(capsys, "table", "--max-n", "4", "--output", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert [entry["n"] for entry in payload] == [2, 3, 4]


@pytest.mark.parametrize("args", [("table", "--max-n", "3"), ("strata", "--n", "3")])
@pytest.mark.parametrize("unwritable", ["missing directory", "directory"])
def test_output_to_unwritable_path_is_usage_error(tmp_path, capsys, monkeypatch, args, unwritable):
    def compute(*_args):
        pytest.fail("computed before checking --output")

    monkeypatch.setattr(solver, "solve_B", compute)
    monkeypatch.setattr(leveltrees, "level_tree_census", compute)
    target = tmp_path / "missing" / "out.json" if unwritable == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err


SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE_MODULES = {
    f"braidchow.{path.stem}" for path in (SRC / "braidchow").glob("*.py")
} - {"braidchow.__init__", "braidchow.__main__"}
# dataclasses brings inspect, ast, dis and tokenize, which no command needs;
# argparse brings gettext, and its messages bring locale
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
# a process that builds no Fraction and quotes only plain ASCII loads none of
# these (fractions brings decimal and numbers)
NO_FRACTIONS_OR_JSON = {"fractions", "decimal", "numbers", "json"}
# the solver and what it computes with, which the numeric routes do without
NO_PLETHYSM_ENGINE = {
    "braidchow.symseries",
    "braidchow.solver",
    "braidchow.pointcounts",
    "braidchow.characters",
    "braidchow.leveltrees",
}
# the registry of checks and the JSON readers beside it, which only verify runs
VERIFY_ONLY = {"braidchow.checks"}
# the Schur table needs no numeric route, no Stirling number and no Fraction
TABLE_NEVER_LOADS = {"braidchow.numeric", "braidchow.combinat"} | NO_FRACTIONS_OR_JSON | VERIFY_ONLY


def _python(
    *args: str, stdout=subprocess.PIPE, text=True, preexec_fn=None
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args``, importing braidchow from src.
    The child's streams are buffered as a user's are: PYTHONUNBUFFERED is
    not passed on, so output left in a buffer is lost there too."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=text,
        timeout=60,
        preexec_fn=preexec_fn,
    )


def _modules_loaded_by(code: str) -> set[str]:
    proc = _python("-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "module, absent",
    [
        # each command imports what it computes with; the bare import loads
        # the serializers and the two modules they read
        (
            "braidchow.cli",
            PACKAGE_MODULES
            - {"braidchow.cli", "braidchow.serialize", "braidchow.partitions", "braidchow.tpoly"}
            | NO_FRACTIONS_OR_JSON,
        ),
        # the numeric routes are read from numeric only when asked for
        ("braidchow.solver", {"braidchow.numeric", "braidchow.combinat"} | NO_FRACTIONS_OR_JSON),
        # the package loads its exported names on first access
        ("braidchow.reference", {"braidchow.symseries", "braidchow.solver", "braidchow.tpoly"}),
    ],
)
def test_an_import_loads_no_module_it_does_not_use(module, absent):
    loaded = _modules_loaded_by(f"import {module}")
    assert module in loaded and not loaded & (absent | NEVER_LOADED)


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    # the names load lazily, so one pointing at a missing module or attribute
    # would otherwise fail only when someone first reads it
    proc = _python("-c", "import braidchow\nfor name in braidchow.__all__: getattr(braidchow, name)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["hnum_stirling", "hnum_bell", "hnum_lattice"])
def test_solver_reads_each_numeric_route_from_numeric(name):
    assert getattr(solver, name) is getattr(numeric, name)
    # read on each access, never bound in solver
    assert name not in vars(solver)


def test_solver_names_only_the_numeric_routes_it_reads():
    with pytest.raises(AttributeError, match="has no attribute 'hnum_nothing'"):
        solver.hnum_nothing


# In an interpreter without fractions, each rule raises what it raised when
# Fraction was imported at module level.
@pytest.mark.parametrize(
    "expr, error",
    [
        ("exact(True)", "ValueError: coefficient must be an int or a Fraction, got True"),
        ("exact(1.5)", "ValueError: coefficient must be an int or a Fraction, got 1.5"),
        ("TPoly((1,)) + 0.5", "ValueError: scalar must be an int or a Fraction, got 0.5"),
        (
            "SymSeries.p(1) + True",
            "ValueError: term () t^0: coefficient must be an int or a Fraction, got True",
        ),
        ("SymSeries.p(1) * True", "ValueError: scalar must be an int or a Fraction, got True"),
        (
            "SymSeries.p(1) * 1.5",
            "TypeError: unsupported operand type(s) for *: 'SymSeries' and 'float'",
        ),
        (
            "SymSeries.p(1) + 1.5",
            "TypeError: unsupported operand type(s) for +: 'SymSeries' and 'float'",
        ),
    ],
)
def test_scalar_rules_hold_before_fractions_is_loaded(expr, error):
    proc = _python(
        "-c",
        "import sys\n"
        "from braidchow.symseries import SymSeries\n"
        "from braidchow.tpoly import TPoly, exact\n"
        "assert 'fractions' not in sys.modules\n"
        f"try:\n    {expr}\n"
        "except Exception as exc:\n    print(f'{type(exc).__name__}: {exc}')\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == error


def test_a_fraction_scales_a_series_once_the_caller_loads_fractions():
    proc = _python(
        "-c",
        "from braidchow.symseries import SymSeries\n"
        "from fractions import Fraction\n"
        "print(SymSeries.p(1) * Fraction(1, 2))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SymSeries(n_max=1, 1/2*p[1])"


def test_the_package_numeric_routes_load_no_plethysm_engine():
    routes = ", ".join(f"braidchow.{name}" for name in ("hnum_stirling", "hnum_bell", "hnum_lattice", "euler_chars"))
    loaded = _modules_loaded_by(f"import braidchow\n{routes}")
    assert "braidchow.numeric" in loaded and not loaded & (NO_PLETHYSM_ENGINE | NEVER_LOADED)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            "strata --n 4",
            {
                "braidchow.symseries",
                "braidchow.solver",
                "braidchow.characters",
                "braidchow.pointcounts",
            }
            | NO_FRACTIONS_OR_JSON
            | VERIFY_ONLY,
        ),
        *(
            (f"numeric --max-n 6 --method {method}", NO_PLETHYSM_ENGINE | NO_FRACTIONS_OR_JSON | VERIFY_ONLY)
            for method in ("lattice", "stirling", "bell")
        ),
        *(
            (f"numeric --max-n 6 --method {method}", NO_FRACTIONS_OR_JSON | VERIFY_ONLY)
            for method in ("solve", "strata", "all")
        ),
        *(
            (f"table --max-n 6 --format {fmt}", TABLE_NEVER_LOADS)
            for fmt in ("json", "csv", "latex")
        ),
        # these print or check Fractions
        ("table --max-n 4 --basis p", {"braidchow.numeric", "braidchow.combinat"} | VERIFY_ONLY),
        ("m-series --max-n 4", VERIFY_ONLY),
        ("verify --max-n 3", set()),
    ],
)
def test_a_command_loads_no_module_it_does_not_use(argv, absent):
    loaded = _modules_loaded_by(f"from braidchow import cli\ncli.main({argv.split()!r})")
    assert not loaded & (absent | NEVER_LOADED)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", ["table --max-n 8", "verify --max-n 4", "strata --n 4", "--help", "table --help"]
)
def test_a_failed_stdout_write_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = _python("-m", "braidchow", *argv.split(), stdout=full)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("braidchow: error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


def _closed_stdout():
    os.close(1)  # runs in the child: the interpreter starts with no fd 1


@pytest.mark.parametrize("argv", ["strata --n 3", "verify --max-n 3"])
def test_a_closed_stdout_exits_2_with_one_line(argv):
    # with fd 1 closed (``>&-``) sys.stdout is None; writing to it is a
    # failed write like any other
    proc = _python(
        "-m", "braidchow", *argv.split(), stdout=subprocess.DEVNULL, preexec_fn=_closed_stdout
    )
    assert proc.returncode == 2
    assert proc.stderr == "braidchow: error: cannot write stdout: Bad file descriptor\n"


def test_a_closed_stdout_is_no_error_when_nothing_goes_there(tmp_path):
    out = tmp_path / "table.json"
    proc = _python(
        "-m", "braidchow", "table", "--max-n", "3", "--output", str(out),
        stdout=subprocess.DEVNULL,
        preexec_fn=_closed_stdout,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(out.read_text())[0]["n"] == 2


# the argv lists of the benchmark's workloads, and smaller ones
ENTRY_POINT_ARGVS = [
    "table --max-n 12",
    "strata --n 6",
    "numeric --max-n 9 --method lattice",
    "verify --max-n 8",
    "table --max-n 6",
    "numeric --max-n 6 --format csv",
    "verify --max-n 3",
]


@pytest.mark.parametrize("argv", ENTRY_POINT_ARGVS)
def test_the_entry_point_prints_what_main_prints(capsys, tmp_path, argv):
    proc = _python("-m", "braidchow", *argv.split(), text=False)
    code, out = run_cli(capsys, *argv.split())
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    if argv.startswith("verify"):
        return  # verify writes no file
    ran, called = tmp_path / "run.out", tmp_path / "main.out"
    proc = _python("-m", "braidchow", *argv.split(), "--output", str(ran))
    assert proc.returncode == cli.main([*argv.split(), "--output", str(called)]) == 0
    assert proc.stdout == "" and ran.read_bytes() == called.read_bytes()


@pytest.mark.parametrize("argv", ["table --max-n 99", "tabel", "strata --n 4 --output {missing}"])
def test_the_entry_point_exits_2_on_usage_errors(tmp_path, argv):
    proc = _python("-m", "braidchow", *argv.format(missing=tmp_path / "no" / "x.json").split())
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_only_the_entry_point_changes_the_collector():
    # in-process callers (the tests, the tracer, the benchmark's set-up
    # sample) keep the collector as they had it; `run` calls `main` with the
    # collector off and then ends the process with `main`'s code, so nothing
    # after it runs
    state = "sys.stderr.write(f'{gc.isenabled()} {gc.get_freeze_count()}\\n')\n"
    proc = _python(
        "-c",
        "import gc, sys\nfrom braidchow import cli\n" + state
        + "cli.main(['strata', '--n', '4'])\n" + state
        + "main = cli.main\n"
        + "def spy(argv):\n"
        + "    main(argv)\n"
        + "    " + state
        + "    return 3\n"
        + "cli.main = spy\n"
        + "cli.run(['strata', '--n', '4'])\n"
        + "sys.stderr.write('run returned\\n')\n",
        stdout=subprocess.DEVNULL,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["True 0", "True 0", "False 0"]


def test_the_entry_point_flushes_what_main_left_buffered():
    # buffered streams: stdout held in a block buffer, stderr in a line
    # buffer with no newline written
    proc = _python(
        "-c",
        "import sys\nfrom braidchow import cli\n"
        "def main(argv):\n"
        "    sys.stdout.write('out')\n"
        "    sys.stderr.write('err')\n"
        "    return 0\n"
        "cli.main = main\n"
        "cli.run([])\n",
    )
    assert proc.returncode == 0 and proc.stdout == "out" and proc.stderr == "err"


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_the_entry_point_returns_under_a_trace_or_profile_hook(hook):
    # coverage and cProfile report at the interpreter's exit, so under their
    # hooks `run` returns the code instead of ending the process
    proc = _python(
        "-c",
        f"import sys\nfrom braidchow import cli\nsys.{hook}(lambda *args: None)\n"
        "code = cli.run(['strata', '--n', '3'])\n"
        f"sys.{hook}(None)\n"
        "sys.stderr.write(f'run returned {code}')\n",
        stdout=subprocess.DEVNULL,
    )
    assert proc.returncode == 0 and proc.stderr == "run returned 0"


def test_cprofile_still_prints_its_report(capsys):
    proc = _python("-m", "cProfile", "-m", "braidchow", "strata", "--n", "3")
    code, out = run_cli(capsys, "strata", "--n", "3")
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout.startswith(out)
    report = proc.stdout[len(out):]
    assert "function calls" in report and "Ordered by" in report


# one numeric route made wrong: 2 mismatch lines for each n = 2..6
BROKEN_BELL_ROUTE = (
    "from braidchow import cli, numeric\n"
    "bell = numeric.hnum_bell\n"
    "numeric.hnum_bell = lambda n_max: {n: p * 2 for n, p in bell(n_max).items()}\n"
)


def test_the_entry_point_keeps_output_and_code_of_a_route_mismatch(capsys, monkeypatch):
    argv = ["numeric", "--max-n", "6", "--method", "all"]
    proc = _python("-c", BROKEN_BELL_ROUTE + f"cli.run({argv!r})\n")
    bell = numeric.hnum_bell
    monkeypatch.setattr(numeric, "hnum_bell", lambda n_max: {n: p * 2 for n, p in bell(n_max).items()})
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert proc.returncode == code == 1
    assert proc.stdout == captured.out and json.loads(proc.stdout)["methods"][0] == "bell"
    lines = proc.stderr.splitlines()
    assert lines == captured.err.splitlines() and len(lines) == 10
    assert all(line.startswith("route mismatch at n=") for line in lines)


@pytest.mark.parametrize(
    "argv, computes",
    [
        ("table --max-n 3", "braidchow.pointcounts.m_series"),
        ("numeric --max-n 3 --method stirling", "braidchow.numeric.hnum_stirling"),
        ("m-series --max-n 3", "braidchow.pointcounts.m_series"),
        ("strata --n 3", "braidchow.leveltrees.level_tree_census"),
    ],
)
def test_an_empty_output_path_is_a_usage_error(capsys, monkeypatch, argv, computes):
    def computed(*args):
        raise AssertionError("computed before the --output check")

    monkeypatch.setattr(computes, computed)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv.split(), "--output", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "braidchow: error: cannot write --output '': empty path\n"


def test_the_console_script_is_what_python_m_runs(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["braidchow"]
    module, name = target.split(":")
    assert module == "braidchow.cli"
    monkeypatch.setattr(cli, name, lambda: 7)
    # __main__ turns the collector off before its first import; give it back
    enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("braidchow", run_name="__main__")
    finally:
        if enabled:
            gc.enable()
    assert exc.value.code == 7


def test_python_m_turns_the_collector_off_before_its_first_import():
    # an import hook reports the collector's state as braidchow.cli loads
    proc = _python(
        "-c",
        "import gc, runpy, sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'braidchow.cli':\n"
        "            sys.stderr.write(f'{gc.isenabled()}\\n')\n"
        "sys.meta_path.insert(0, Spy())\n"
        "sys.argv = ['braidchow', 'strata', '--n', '3']\n"
        "runpy.run_module('braidchow', run_name='__main__')\n",
        stdout=subprocess.DEVNULL,
    )
    assert proc.returncode == 0 and proc.stderr == "False\n"


# The entry point runs with the cyclic collector off, which is safe only while
# a run leaves no garbage in reference cycles; a cycle made in a hot loop (a
# recursive closure per call, say) would leave thousands.
@pytest.mark.parametrize(
    "argv",
    [
        "table --max-n 12",
        "verify --max-n 8",
        "strata --n 6",
        "numeric --max-n 9 --method lattice",
        "m-series --max-n 12",
    ],
)
def test_a_run_leaves_little_cyclic_garbage(argv):
    proc = _python(
        "-c",
        "import gc, sys\ngc.disable()\nfrom braidchow import cli\n"
        f"code = cli.main({argv.split()!r})\n"
        "sys.stderr.write(f'{code} {gc.collect()} {\"argparse\" in sys.modules}')",
        stdout=subprocess.DEVNULL,
    )
    code, cyclic, argparse_loaded = proc.stderr.split()
    # a plain argv is read without argparse
    assert code == "0" and int(cyclic) == 0 and argparse_loaded == "False"


def test_output_check_neither_creates_nor_truncates(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    cli._check_output(str(new))
    cli._check_output(str(old))
    assert not new.exists() and old.read_text() == "kept"


def test_table_csv(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,poly"
    assert "4,3 1,0 1" in lines


# -- numeric command -------------------------------------------------------------------


def test_numeric_all_routes(capsys):
    code, out = run_cli(capsys, "numeric", "--max-n", "5", "--method", "all")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["methods"]) == {"solve", "stirling", "bell", "lattice", "strata"}
    rows = {row["n"]: row for row in payload["rows"]}
    assert rows[5]["hnum"] == ["1", "41", "41", "1"]
    assert rows[5]["chi"] == 84
    assert rows[4]["hnum"] == ["1", "8", "1"]


def test_numeric_strata_only(capsys):
    code, out = run_cli(capsys, "numeric", "--max-n", "6", "--method", "strata")
    assert code == 0
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    assert rows[6]["hnum"] == ["1", "187", "732", "187", "1"]


def test_numeric_strata_reaches_the_degree_cap(capsys):
    code, strata = run_cli(capsys, "numeric", "--max-n", "12", "--method", "strata")
    assert code == 0
    code, stirling = run_cli(capsys, "numeric", "--max-n", "12", "--method", "stirling")
    assert code == 0
    stirling_rows = [row for row in json.loads(stirling)["rows"] if row["n"] >= 2]
    assert json.loads(strata)["rows"] == stirling_rows


def test_numeric_stirling_deep(capsys):
    code, out = run_cli(capsys, "numeric", "--max-n", "12", "--method", "stirling")
    assert code == 0
    rows = {row["n"]: row for row in json.loads(out)["rows"]}
    hnum12 = [Fraction(c) for c in rows[12]["hnum"]]
    assert sum(hnum12) == rows[12]["chi"]
    assert hnum12 == hnum12[::-1] and hnum12[-1] == 1


def test_numeric_csv(capsys):
    code, out = run_cli(capsys, "numeric", "--max-n", "4", "--method", "bell", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,hnum,chi"
    assert "4,1 8 1,10" in lines


def test_numeric_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["numeric", "--max-n", "13"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["numeric", "--max-n", "13", "--method", "strata"])
    assert exc.value.code == 2


def test_a_semantic_usage_error_prints_the_usage_of_its_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--max-n", "13"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: braidchow table ")
    assert err.endswith("error: --max-n must be between 2 and 12, got 13\n")


@pytest.mark.parametrize("command", ["numeric", "m-series"])
def test_latex_is_offered_only_for_tables(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--max-n", "4", "--format", "latex"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: braidchow {command}")
    assert "invalid choice: 'latex'" in captured.err


# -- m-series command ------------------------------------------------------------------


def test_m_series_roundtrip(capsys):
    code, out = run_cli(capsys, "m-series", "--max-n", "4")
    assert code == 0
    payload = json.loads(out)
    M = m_series(4)
    for entry in payload:
        terms = {(tuple(t["partition"]), t["t"]): Fraction(t["coeff"]) for t in entry["terms"]}
        assert len(terms) == len(entry["terms"])
        assert SymSeries(4, terms) == M.component(entry["n"])


# -- strata command --------------------------------------------------------------------


def test_strata_command(capsys):
    code, out = run_cli(capsys, "strata", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"1": 1, "2": 13, "3": 18}
    assert payload["total"] == 32 == payload["chain_count"]
    assert payload["epoly"] == ["1", "8", "1"]


def test_strata_count_only(capsys):
    code, out = run_cli(capsys, "strata", "--n", "5", "--count-only")
    assert code == 0
    payload = json.loads(out)
    assert "epoly" not in payload
    assert payload["total"] == 436


def test_strata_at_the_cap(capsys):
    code, out = run_cli(capsys, "strata", "--n", "8", "--count-only")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["chain_count"] == 10270696


def test_strata_cap():
    with pytest.raises(SystemExit) as exc:
        cli.main(["strata", "--n", "9"])
    assert exc.value.code == 2


# -- verify command ---------------------------------------------------------------------


def test_verify_small(capsys):
    code, out = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 0
    assert "all 18 checks passed" in out


def test_verify_names_broken_check(capsys, monkeypatch):
    original = numeric.stirling_first_signed
    monkeypatch.setattr(
        numeric, "stirling_first_signed", lambda n, k: -original(n, k)
    )
    code, out = run_cli(capsys, "verify", "--max-n", "4")
    assert code == 1
    first_fail = next(line for line in out.splitlines() if line.startswith("FAIL"))
    assert "stirling-bell identity" in first_fail
    assert "verification failed: stirling-bell identity" in out


def test_verify_catches_a_faulty_solver(capsys, monkeypatch):
    original = solver.solve_B

    def faulty(M):
        B = original(M)
        return B + SymSeries.h(4, B.n_max) * TPoly((0, 1))

    monkeypatch.setattr(solver, "solve_B", faulty)
    solver.solved_series.cache_clear()  # the checks read the solution through this cache
    try:
        code, out = run_cli(capsys, "verify", "--max-n", "5")
    finally:
        solver.solved_series.cache_clear()
    assert code == 1
    failed = {line[5:].split(":")[0] for line in out.splitlines() if line.startswith("FAIL")}
    assert failed == {
        "functional equation",
        "reference table reproduction",
        "numeric route agreement",
        "level filtration",
    }


def test_verify_reports_a_kernel_error_and_runs_on(capsys, monkeypatch):
    class CorruptedCache(PlethysmCache):
        def __init__(self, g):
            super().__init__(g)
            self.product((1,))[2][self.key((2,))] += 1  # packed: bit 0 holds the t^0 coefficient

    monkeypatch.setattr(solver, "PlethysmCache", CorruptedCache)
    solver.solved_series.cache_clear()
    try:
        code, out = run_cli(capsys, "verify", "--max-n", "5")
    finally:
        solver.solved_series.cache_clear()
    assert code == 1
    assert "Traceback" not in out + capsys.readouterr().err
    lines = out.splitlines()
    assert "FAIL functional equation: ValueError: nonzero remainder 1/2 dividing the " \
        "coefficient of p_(2, 1) (degree 3) by (t - 1)" in lines
    for name in ("level tree census", "strata oracle", "pruning round-trip"):
        assert f"  ok {name}" in lines
    assert len(lines) == len(checks.CHECKS) + 1


# The bounds each check runs at under verify --max-n 2, 8 and 12.  A change
# here lowers or raises what verify proves; it must be deliberate.
PINNED_VERIFY_BOUNDS = {
    "stirling-bell identity": [(2,), (8,), (12,)],
    "stirling triangle inversion": [(2,), (8,), (12,)],
    "bell t->1 limit": [(2,), (8,), (12,)],
    "omega closed form": [(2,), (8,), (12,)],
    "plethysm spot identities": [(6,), (6,), (6,)],
    "twisted counts are counts": [(2,), (8,), (12,)],
    "input series rank polynomials": [(2,), (8,), (12,)],
    "input series integrality": [(2,), (8,), (12,)],
    "functional equation": [(2,), (8,), (12,)],
    "reference table reproduction": [(2,), (6,), (6,)],
    "numeric route agreement": [(2, 2), (8, 8), (12, 10)],
    "euler characteristics": [(5,), (8,), (12,)],
    "structural properties": [(2,), (8,), (12,)],
    "level filtration": [(2,), (8,), (12,)],
    "level tree census": [(2,), (6,), (6,)],
    "strata oracle": [(2,), (8,), (12,)],
    "pruning round-trip": [(2,), (5,), (5,)],
    "serialization round-trip": [(2,), (6,), (6,)],
}


@pytest.mark.parametrize("column, max_n", enumerate((2, 8, 12)))
def test_verify_runs_each_check_at_its_pinned_bounds(monkeypatch, column, max_n):
    seen = {}
    recorders = [
        (name, lambda *bounds, name=name: seen.setdefault(name, bounds))
        for name, _fn in checks.CHECKS
    ]
    monkeypatch.setattr(checks, "CHECKS", recorders)
    checks.run_all(max_n, report=lambda line: None)
    assert seen == {name: bounds[column] for name, bounds in PINNED_VERIFY_BOUNDS.items()}


# -- byte identity ------------------------------------------------------------------------

# sha256 of stdout: the --max-n 8 and 10 entries were taken when every series
# operation still ran on Fractions throughout, the --max-n 12 ones while the
# input series and the solver's right-hand side still did (the second equals
# the digest the benchmark pins for table12); the reference table stops at
# n = 6, so these pin every coefficient of the larger tables and of the input
# series, and their order.
PINNED_STDOUT_SHA256 = {
    "table --max-n 10": "339068fdb04e2bd86b752472e5e0ae05af374981f19e0c4255304aa75909007a",
    "table --max-n 10 --format csv":
        "24a18f72a7ae9132a8745045efdc9a115f3a75aa1992cc92e5f4c716a97e6e42",
    "table --max-n 10 --format latex":
        "5845076abe764296db81501a3306d434455885f88bed37cab26dc734614addf2",
    "table --max-n 10 --basis p":
        "17f3d9e8e4fdd3dac56a9de60fb5dc37927b77dd1512d14c738e06b264c7620d",
    "table --max-n 10 --basis p --format csv":
        "c853768a191e683c2b8232e24043df9e51cc59f1cc24b66ce65a2862b25d72b9",
    "m-series --max-n 8": "5b7eb2932bed21183b7ab675a894f3df7bfdb0de6e932cac22991937a7ae3e00",
    "m-series --max-n 12": "6de34e207ee74b31c27634f366978a78613a8fae90953573da5a21c4b338ce43",
    "table --max-n 12": "142ab3db68fae4199f7eb3085f66e89e75ed13f61df2d51b3c8c747dfc47346b",
    "table --max-n 12 --basis p":
        "8ee9cf39fa07d74922f4efd72df9cbba5150b08d5cb26b295799eb4405557370",
    "table --max-n 12 --basis p --format csv":
        "65e33c6bfa5f9d31b64372e5e60fcc667bbb9ec0b0e08e90428c0a2646310653",
    "table --max-n 12 --format csv":
        "f3d17ba0ee5c085e140653ebf49d59dca4363c08bffc4943426a1cc41289a122",
    "table --max-n 12 --format latex":
        "ccbe90e2fb47cf39232784b598bd8ac28d632e12e0e4dfa17ff44ad080bd5acb",
    # the benchmark's other outputs, with the digests it pins
    "verify --max-n 8": "b3bc4647c6e7a8dfbfe73c6268234828c80f3f51acb2405a3cada6545031396f",
    "strata --n 6": "3b69ed4885ee67e3a0de8862b93803354afb9c7e66537319711965960ddd2159",
    "numeric --max-n 9 --method lattice":
        "ea531c02e551eb60abdd17f74c54b58845977a69d066e6523450d96cb25102eb",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_matches_pinned_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[command]


def test_table_at_degree_16_matches_its_pinned_digest(capsys, monkeypatch):
    """One run past the cap pins every coefficient through n = 16 for later
    kernel work; the solution it prints also agrees with the Stirling route."""
    monkeypatch.setattr(cli, "MAX_N", 16)
    solved = []

    def recording_solve_B(*args):
        solved.append(solve_B(*args))
        return solved[-1]

    monkeypatch.setattr(solver, "solve_B", recording_solve_B)
    code, out = run_cli(capsys, "table", "--max-n", "16")
    assert code == 0
    # sha256 of the stdout when the plethysm kernel still keyed its cells by
    # partition tuples
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ea11079d983b7b48b4f72ab36ef3bf7aba4130868bebd6c1bc9b6642edd69b60"
    )
    assert solver.hnum_from_solver(solved[0]) == numeric.hnum_stirling(16)


def test_table_builds_no_character_table(capsys, monkeypatch):
    # the Schur expansion adds border strips to the solution's p-rows; the
    # removal-rule character values are kept only as its oracle
    def removal_route(*args):
        raise AssertionError("table reached the removal-rule character values")

    monkeypatch.setattr(characters, "character_table", removal_route)
    monkeypatch.setattr(characters, "character_value", removal_route)
    code, out = run_cli(capsys, "table", "--max-n", "8")
    assert code == 0
    # sha256 of the same command's stdout while it still used character tables
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "b34b1d2ffd7690dc1df321cfddf672f0afb4607fd5bcd4e66644d668d74172da"
    )


# -- argument fuzzing -----------------------------------------------------------------------

# Valid degrees are drawn only up to 6, so that every run that gets past the
# parser stays fast; 7..12 run the same code at more cost.  The commands
# default to --max-n 8, so an argv that never sets a degree gets --max-n 2
# right after its command, where any drawn --max-n still overrides it.
DEGREES = st.one_of(
    st.sampled_from(["2", "3", "4", "5", "6"]),
    st.sampled_from(["0", "1", "-3", "13", "99", "x", "3.5", ""]),
)
COMMANDS = st.sampled_from(["table", "numeric", "m-series", "strata", "verify", "tabel", "-h", "--", ""])


def _option(flag, values):
    """``flag`` or a prefix of it (``--m`` is ambiguous in ``numeric``), then
    a value, as the next token or, for a name drawn with a trailing "=",
    joined to it by `_tokens`."""
    names = st.sampled_from([flag, flag[:4], flag[:3]])
    return st.tuples(st.one_of(names, names.map(lambda name: name + "=")), values)


OPTIONS = st.one_of(
    _option("--max-n", DEGREES),
    _option("--n", DEGREES),
    _option("--format", st.sampled_from(["json", "csv", "latex", "xml"])),
    _option("--method", st.sampled_from([*cli.METHODS, "fast"])),
    _option("--basis", st.sampled_from(["schur", "p", "e"])),
    _option("--output", st.sampled_from(["file", "dir", "missing-dir"])),
    st.sampled_from(
        [("--count-only",), ("--count",), ("--max-n",), ("--bogus",), ("4",), ("-h",), ("--help",), ("--",)]
    ),
)


def _tokens(options, paths=None) -> list[str]:
    argv = []
    for option in options:
        tokens = [(paths or {}).get(token, token) for token in option]
        if tokens[0].endswith("=") and len(tokens) == 2:
            tokens = [tokens[0] + tokens[1]]
        argv += tokens
    return argv


@settings(max_examples=60)
@given(COMMANDS, st.lists(OPTIONS, max_size=3))
def test_fuzzed_argv_runs_or_exits_2_with_a_message(tmp_path_factory, command, options):
    where = tmp_path_factory.getbasetemp()
    paths = {
        "file": str(where / "out.txt"),
        "dir": str(where),
        "missing-dir": str(where / "no" / "x"),
    }
    argv = [command] if command else []
    if command in ("table", "numeric", "m-series", "verify"):
        argv += ["--max-n", "2"]
    argv += _tokens(options, paths)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("usage: braidchow", "braidchow: error:")), argv
    else:
        assert code in (0, 1), (argv, code)


def _argparse_parser():
    """An argparse parser built from `cli.COMMANDS` here, apart from the one
    `cli` builds for the argv its plain reading declines: the reference the
    fuzzer compares `cli.parse` with."""
    import argparse

    parser = argparse.ArgumentParser(prog="braidchow")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (about, options) in cli.COMMANDS.items():
        command = commands.add_parser(name, help=about)
        for flag, kind, default in options:
            if kind is bool:
                command.add_argument(flag, action="store_true")
            elif isinstance(kind, tuple):
                command.add_argument(flag, choices=kind, default=default)
            elif default is ...:
                command.add_argument(flag, type=kind, required=True)
            else:
                command.add_argument(flag, type=kind, default=default)
    return parser


def _argparse_parse(argv):
    values = vars(_argparse_parser().parse_args(argv))
    return values.pop("command"), values


def _parsed(parse, argv):
    """("values", command, option values), ("help",) after a help text on
    stdout and exit 0, or ("error",) after a message on stderr and exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("values", *parse(argv))
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        assert out.getvalue().startswith("usage: braidchow") and err.getvalue() == "", argv
        return ("help",)
    assert code == 2 and out.getvalue() == "" and "error: " in err.getvalue(), argv
    if parse is cli.parse:
        usage, error = err.getvalue().splitlines()
        prog = error.split(": error: ")[0]
        assert usage.startswith(f"usage: {prog} ") and prog.startswith("braidchow"), argv
    return ("error",)


@settings(max_examples=400)
@given(COMMANDS, st.lists(OPTIONS, max_size=4))
@example("table", [("--max-n=", "3"), ("--ma", "4")])  # the last one wins
@example("numeric", [("--m", "3")])  # ambiguous
@example("strata", [("--n=", "3"), ("--c",)])
@example("strata", [("-h",), ("--bogus",)])  # help before an unknown option
@example("verify", [("--",), ("-h",)])  # no option after --
@example("--", [])
@example("strata", [("--n", "-3")])  # a negative number is a value
@example("table", [("--output", "-my file")])  # so is a token with a space
# each side of the limits of the plain reading (see PLAIN_OR_NOT)
@example("table", [("--max-n", "3"), ("--max-n", "4")])
@example("strata", [("--count-only",), ("--n", "3")])
@example("table", [("--output", "-")])
@example("table", [("--output", "-x")])
@example("verify", [("--max-n", " 3")])
@example("table", [("--max-n", "1_2")])
@example("table", [("--basis", "e")])
@example("verify", [("--max-n",)])
def test_the_parser_reads_argv_as_argparse_did(command, options):
    argv = ([command] if command else []) + _tokens(options)
    assert _parsed(cli.parse, argv) == _parsed(_argparse_parse, argv)


# argv -> whether cli's plain reading takes it, not argparse
PLAIN_OR_NOT = {
    "table --max-n 3 --max-n 4": True,  # the last repeat wins, as in argparse
    "strata --count-only --n 3": True,
    "strata --count-only": False,  # --n is required
    "table --output out.json": True,
    "table --output -": False,  # argparse reads "-" as a value; the plain reading declines it
    "table --output -x": False,
    "verify --max-n 3": True,
    'verify --max-n " 3"': True,  # int() parses " 3"
    "table --max-n 1_2": True,  # and "1_2"
    "verify --max-n -3": False,
    "verify --max-n x": False,
    "table --basis p": True,
    "table --basis e": False,
    "verify --max-n": False,
    "verify --max=3": False,
    "verify --max 3": False,
    "verify --max-n=3": False,
    "verify -- --max-n 3": False,
    "verify -h": False,
    "--max-n 3 verify": False,
    "": False,
}


@pytest.mark.parametrize("argv", PLAIN_OR_NOT)
def test_the_plain_reading_takes_only_plain_argv(argv):
    assert (cli._plain(shlex.split(argv)) is not None) is PLAIN_OR_NOT[argv]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("", "braidchow: error: the following arguments are required: command"),
        (
            "tabel",
            "braidchow: error: argument command: invalid choice: 'tabel' (choose from "
            "'table', 'numeric', 'm-series', 'strata', 'verify')",
        ),
        (
            "table --format tex",
            "braidchow table: error: argument --format: invalid choice: 'tex' (choose from "
            "'json', 'csv', 'latex')",
        ),
        ("verify --max-n=x", "braidchow verify: error: argument --max-n: invalid int value: 'x'"),
        ("strata --count-only", "braidchow strata: error: the following arguments are required: --n"),
        ("strata --n", "braidchow strata: error: argument --n: expected one argument"),
        ("numeric --m 3", "braidchow numeric: error: ambiguous option: --m could match --max-n, --method"),
        (
            "strata --n 3 --count-only=yes",
            "braidchow strata: error: argument --count-only: ignored explicit argument 'yes'",
        ),
        ("verify --max-n 3 4 -- -h", "braidchow verify: error: unrecognized arguments: 4 -- -h"),
    ],
)
def test_a_parse_error_prints_the_usage_line_and_argparses_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert captured.out == ""
    assert usage.startswith(f"usage: {message.split(': error: ')[0]} [-h] ")
    assert error == message


@pytest.mark.parametrize("command", ["", *cli.COMMANDS])
def test_help_names_every_command_or_option_and_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    options = cli.COMMANDS[command][1] if command else ()
    names = [flag for flag, _kind, _default in options] if command else cli.COMMANDS
    assert out.startswith(f"usage: braidchow {command}".rstrip() + " [-h] ")
    assert all(name in out for name in names)
    for flag, kind, default in options:
        note = "required" if default is ... else None if kind is bool or default is None else f"default: {default}"
        if note:
            # the note follows the option's flag and metavar, on its line or the next
            assert re.search(rf"^  {re.escape(flag)} [^ \n]+\s+{re.escape(note)}$", out, re.M), (flag, note)


@pytest.mark.parametrize("command", ["", *cli.COMMANDS])
def test_help_and_usage_keep_one_usage_line_in_a_narrow_terminal(monkeypatch, command):
    # argparse wraps at the terminal width it reads from COLUMNS; cli's
    # parsers use a fixed width instead
    monkeypatch.setenv("COLUMNS", "30")
    flags = [flag for flag, _kind, _default in cli.COMMANDS[command][1]] if command else []
    error = _python("-m", "braidchow", *command.split(), "--bogus")
    assert error.returncode == 2 and error.stdout == ""
    usage, message = error.stderr.splitlines()
    assert usage.startswith(f"usage: braidchow {command}".rstrip() + " [-h]")
    assert all(flag in usage for flag in flags)
    assert message.startswith(f"braidchow {command}".rstrip() + ": error: ")
    shown = _python("-m", "braidchow", *command.split(), "--help")
    assert shown.returncode == 0 and shown.stderr == ""
    assert shown.stdout.splitlines()[0] == usage
