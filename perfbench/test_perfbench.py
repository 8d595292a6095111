"""Tests of the benchmark itself: tracer wrappers, count repeatability, checks.

    python3 -m pytest perfbench

They use small argv lists so that they run in seconds; ``run.py --trace 1``
applies the same count-repeat check to the full workloads on every run.
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, reference_mismatch  # noqa: E402

from braidchow import checks, symseries  # noqa: E402
from braidchow.reference import REFERENCE_TABLE  # noqa: E402

SMALL = [
    ("table", "--max-n", "7"),
    ("strata", "--n", "4"),
    ("numeric", "--max-n", "6", "--method", "lattice"),
    ("verify", "--max-n", "5"),
]


def _bindings() -> dict:
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "braidchow" or modname.startswith("braidchow."):
            out.update({(modname, k): v for k, v in vars(module).items()})
    out.update({("SymSeries", k): v for k, v in vars(symseries.SymSeries).items()})
    return out


def test_install_restores_every_name():
    importlib.import_module("braidchow.cli")  # the tracer imports it; snapshot it too
    before = _bindings()
    checks_before = list(checks.CHECKS)
    t = tracer.Tracer()
    result = tracer.run_invocation(["table", "--max-n", "5"], t)
    assert result["exit"] == 0 and result["metrics"]["symseries.plethysm.calls"] > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(a is b for a, b in zip(checks.CHECKS, checks_before))
    assert len(checks.CHECKS) == len(checks_before)


def _tracer_child(mode: str, argv) -> dict:
    res = run.run_child([sys.executable, str(HERE / "tracer.py"), mode, *argv])
    assert res["exit"] == 0
    return json.loads(res["stdout"].decode().splitlines()[-1])


def test_traced_output_matches_plain_and_counts_repeat():
    produced = set()
    for argv in SMALL:
        plain = _tracer_child("plain", argv)
        first = _tracer_child("traced", argv)
        second = _tracer_child("traced", argv)
        assert first["exit"] == plain["exit"] == 0
        assert first["sha256"] == second["sha256"] == plain["sha256"], argv
        counts = [
            {k: v for k, v in r["metrics"].items() if not run._is_time(k)}
            for r in (first, second)
        ]
        assert counts[0] == counts[1], argv
        produced |= set(first["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = {m["name"] for m in spec["per_layer"]} - produced - {"trace.overhead_s"}
    assert not missing


def test_every_registered_check_has_a_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"checks.{tracer.check_slug(name)}.s" for name, _fn in checks.CHECKS} <= names


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    # (layer, start, end, parent, id): "a" covers [0, 10] with children of 3 and 2
    t.spans = [("b", 1.0, 4.0, 0, 1), ("c", 5.0, 7.0, 0, 2), ("a", 0.0, 10.0, -1, 0)]
    m = t.layer_metrics()
    assert m["a.s"] == 10.0 and m["a.self_s"] == 5.0
    assert m["b.self_s"] == 3.0 and m["c.self_s"] == 2.0


def test_reference_check_is_independent_of_digests():
    text = subprocess.run(
        [sys.executable, "-m", "braidchow", "table", "--max-n", "6"],
        cwd=ROOT, env=run.child_env(), capture_output=True, check=True, text=True,
    ).stdout
    assert reference_mismatch(text, REFERENCE_TABLE) is None
    rows = json.loads(text)
    rows[4]["rows"][0]["poly"][1] = "4"  # n = 6, s_6: 9 -> 4
    assert "n=6" in reference_mismatch(json.dumps(rows), REFERENCE_TABLE)
    assert "n=6" in reference_mismatch(json.dumps(rows[:4]), REFERENCE_TABLE)
    assert reference_mismatch("not json", REFERENCE_TABLE)


def test_calibration_probe_checks_its_work(monkeypatch):
    assert calibrate.work() == calibrate.EXPECTED
    assert calibrate.probe() > 0
    monkeypatch.setattr(calibrate, "EXPECTED", "something else")
    with pytest.raises(calibrate.CalibrationError):
        calibrate.probe()


def test_paced_child_keeps_output_and_exit_code():
    code = (
        "import sys, time\n"
        "end = time.process_time() + 0.4\n"
        "while time.process_time() < end: pass\n"
        "sys.stdout.write('x' * 200000)\n"
        "sys.exit(3)\n"
    )
    res = run.scaled_child([sys.executable, "-c", code], pace_s=0.05)
    assert res["exit"] == 3
    assert res["stdout"] == b"x" * 200000
    assert len(res["probes"]) >= 4  # one before, one after, and some while it ran
    assert res["scale"] > 0 and 0.4 <= res["wall_s"] < 5


def test_failed_probe_kills_and_reaps_the_paused_child(monkeypatch):
    started, real_popen = [], subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(run.subprocess, "Popen", popen)
    monkeypatch.setattr(calibrate, "EXPECTED", "something else")
    with pytest.raises(calibrate.CalibrationError):
        run.run_child([sys.executable, "-c", "import time; time.sleep(10)"], pace_s=0.05)
    assert started[0].returncode == -signal.SIGKILL


def test_checker_flags_wrong_digest_and_exit_code():
    inv = WORKLOADS["verify8"][0]
    checker = run.Checker()
    checker.check(inv, 0, inv.stdout_sha256)
    checker.check(inv, 0, "0" * 64)
    checker.check(inv, 1, inv.stdout_sha256)
    assert (checker.attempted, checker.failed) == (3, 2)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table12", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
