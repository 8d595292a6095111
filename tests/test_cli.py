import contextlib
import hashlib
import io
import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from braidchow import checks, cli, combinat, solver
from braidchow.graded import GradedSeries
from braidchow.pointcounts import m_series
from braidchow.reference import REFERENCE_TABLE
from braidchow.serialize import (
    schur_table_from_obj,
    schur_table_latex_row,
    schur_table_to_obj,
    series_from_obj,
    series_to_obj,
)
from braidchow.solver import solve_B
from braidchow.symseries import PlethysmCache, SymSeries
from braidchow.tpoly import TPoly


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


# -- serialization ----------------------------------------------------------------


def test_series_json_roundtrip():
    B = solve_B(m_series(5))
    for n in range(2, 6):
        comp = B.component(n)
        obj = series_to_obj(n, comp)
        assert series_from_obj(obj, comp.n_max) == comp
        assert json.loads(json.dumps(obj)) == obj


def test_series_records_are_exact_strings():
    obj = series_to_obj(2, SymSeries.h(2))
    assert obj == {
        "n": 2,
        "terms": [
            {"partition": [2], "t": 0, "coeff": "1/2"},
            {"partition": [1, 1], "t": 0, "coeff": "1/2"},
        ],
    }


def test_schur_table_roundtrip():
    table = {(4,): TPoly((1, 3, 1)), (3, 1): TPoly((0, 1)), (2, 2): TPoly((0, 1))}
    obj = schur_table_to_obj(4, table)
    assert [row["lambda"] for row in obj["rows"]] == [[4], [3, 1], [2, 2]]
    assert schur_table_from_obj(obj) == table


def test_latex_row_formatting():
    table = {(4,): TPoly((1, 3, 1)), (3, 1): TPoly((0, 1)), (2, 2): TPoly((0, 1))}
    row = schur_table_latex_row(4, table)
    assert row == "$4$ & $s_4(1 + 3t + t^2) + s_{31}t + s_{22}t$ \\\\"


@pytest.mark.parametrize("partition", [[1, 2], [3], [2, 1], [2, 0], [-1, 3]], ids=str)
def test_series_from_obj_rejects_bad_partitions(partition):
    term = {"partition": partition, "t": 0, "coeff": "1"}
    with pytest.raises(ValueError, match="term") as exc:
        series_from_obj({"n": 2, "terms": [term]})
    assert repr(term) in str(exc.value)


@pytest.mark.parametrize("t", [1.5, "1", True, -1], ids=repr)
def test_series_from_obj_rejects_bad_t(t):
    term = {"partition": [2], "t": t, "coeff": "1"}
    with pytest.raises(ValueError, match="term") as exc:
        series_from_obj({"n": 2, "terms": [term]})
    assert repr(term) in str(exc.value)


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

    monkeypatch.setattr(cli, "solve_B", compute)
    monkeypatch.setattr(cli, "level_tree_census", compute)
    target = tmp_path / "missing" / "out.json" if unwritable == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err


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
        n = entry["n"]
        assert series_from_obj(entry, 4) == M.component(n)


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
    original = combinat.stirling_first_signed
    monkeypatch.setattr(
        combinat, "stirling_first_signed", lambda n, k: -original(n, k)
    )
    code, out = run_cli(capsys, "verify", "--max-n", "4")
    assert code == 1
    first_fail = next(line for line in out.splitlines() if line.startswith("FAIL"))
    assert "stirling-bell identity" in first_fail
    assert "verification failed: stirling-bell identity" in out


def test_verify_catches_a_faulty_solver(capsys, monkeypatch):
    original = solver.solve_B

    def faulty(M, n_max=None):
        B = original(M, n_max)
        comps = dict(B.components)
        comps[4] = comps[4] + SymSeries.h(4, B.n_max) * TPoly((0, 1))
        return GradedSeries(B.n_max, comps)

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
            self.psi_table(1)[2][(2,)][0] += 1

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
    "twisted counts are counts": [(2,), (8,), (8,)],
    "input series rank polynomials": [(2,), (8,), (12,)],
    "input series integrality": [(2,), (8,), (8,)],
    "functional equation": [(2,), (8,), (12,)],
    "reference table reproduction": [(2,), (6,), (6,)],
    "numeric route agreement": [(2, 2), (8, 8), (12, 10)],
    "euler characteristics": [(5,), (8,), (12,)],
    "structural properties": [(2, 2), (8, 8), (12, 8)],
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
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_matches_pinned_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[command]


# -- argument fuzzing -----------------------------------------------------------------------

# Valid degrees are drawn only up to 6, so that every run that gets past the
# parser stays fast; 7..12 run the same code at more cost.  The commands
# default to --max-n 8, so an argv that never sets a degree gets --max-n 2
# right after its command, where any drawn --max-n still overrides it.
DEGREES = st.one_of(
    st.sampled_from(["2", "3", "4", "5", "6"]),
    st.sampled_from(["0", "1", "-3", "13", "99", "x", "3.5", ""]),
)
COMMANDS = st.sampled_from(["table", "numeric", "m-series", "strata", "verify", "tabel", "-h", ""])
OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--max-n", "--n"]), DEGREES),
    st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "latex", "xml"])),
    st.tuples(st.just("--method"), st.sampled_from([*cli.METHODS, "fast"])),
    st.tuples(st.just("--basis"), st.sampled_from(["schur", "p", "e"])),
    st.tuples(st.just("--output"), st.sampled_from(["file", "dir", "missing-dir"])),
    st.sampled_from([("--count-only",), ("--max-n",), ("--bogus",), ("4",), ("-h",)]),
)


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
    for option in options:
        argv += [paths.get(token, token) for token in option]
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
