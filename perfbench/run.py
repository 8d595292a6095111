#!/usr/bin/env python3
"""Benchmark of the ``braidchow`` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload table12 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The program is used from ``src`` as it
stands (``python -m braidchow`` with ``src`` on ``PYTHONPATH``); nothing is
installed.  One client, closed loop: invocations run one at a time, each in a
fresh interpreter, and the next starts when the previous one has exited.

``--trace 0`` times whole passes over the workload's invocations for
``--seconds`` and reports the end-to-end metrics, scaled to a reference host
speed by probes of ``perfbench/calibrate.py`` timed while each invocation is
paused (see ``timed_run``).  ``--trace 1`` runs each invocation in-process
under ``perfbench/tracer.py``, once plain and once with layer wrappers, in
fresh interpreters, and reports the per-layer metrics.
Every stdout is checked against its pinned digest in both modes.  The seed
only permutes the order of a workload's invocations within each pass.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run context.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS, Invocation, reference_mismatch  # noqa: E402

SETUP_SAMPLES = 9  # bare interpreter starts, for the context
SETUP_PER_INVOCATION = 2  # set-up samples taken before each timed invocation
PACE_S = 0.3  # running time between two calibration probes
SETUP_PACE_S = 0.04  # the same for the set-up samples, which run about 0.1 s
# About the median time of one calibration probe on the VM the benchmark was
# defined on (2-core Intel Xeon, Python 3.11); timed runs are scaled to it.
PROBE_REF_S = 0.050
MIN_TRACE_ROUNDS = 2  # exact counts must repeat across traced rounds


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], pace_s: float | None = None) -> dict:
    """Run one child to completion; stdout, exit code, wall, CPU and peak RSS.

    With ``pace_s``, the child is stopped (SIGSTOP) after every ``pace_s``
    seconds of running, one calibration probe is timed while it is stopped,
    and it is continued; ``wall_s`` then leaves out the stopped intervals and
    ``probes`` holds the probe times.  The child is killed and reaped on every
    way out of this function.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    out, probes, paused, reaped = [], [], 0.0, None
    try:
        os.set_blocking(fd, False)
        deadline = time.perf_counter() + (pace_s or float("inf"))
        while True:
            timeout = None if pace_s is None else max(0.0, deadline - time.perf_counter())
            if select.select([fd], [], [], timeout)[0]:
                data = os.read(fd, 1 << 16)
                if not data:  # end of file: the child is exiting
                    break
                out.append(data)
                continue
            stop = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _pid, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it exited before the signal landed
                reaped = (status, usage)
                break
            probes.append(calibrate.probe())
            os.kill(proc.pid, signal.SIGCONT)
            resumed = time.perf_counter()
            paused += resumed - stop
            deadline = resumed + pace_s
        if reaped is None:
            _pid, status, usage = os.wait4(proc.pid, 0)
            reaped = (status, usage)
    finally:
        if reaped is None:  # an error or an interrupt: end the child before passing it on
            os.kill(proc.pid, signal.SIGKILL)
            reaped = os.wait4(proc.pid, 0)[1:]
        proc.returncode = os.waitstatus_to_exitcode(reaped[0])
        proc.stdout.close()
    status, usage = reaped
    return {
        "stdout": b"".join(out),
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - start - paused,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "probes": probes,
    }


class Checker:
    """Counts attempted and failed invocations and says why each one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, inv: Invocation, exit_code: int, sha256: str, stdout: bytes | None = None):
        self.attempted += 1
        problem = None
        if exit_code != inv.exit_code:
            problem = f"exit code {exit_code}, pinned {inv.exit_code}"
        elif sha256 != inv.stdout_sha256:
            problem = f"stdout sha256 {sha256}, pinned {inv.stdout_sha256}"
        elif inv.reference_rows and stdout is not None:
            from braidchow.reference import REFERENCE_TABLE

            problem = reference_mismatch(stdout.decode(), REFERENCE_TABLE)
        if problem is not None:
            self.failed += 1
            self.fail(f"braidchow {inv.label}: {problem}")

    def fail(self, message: str):
        self.problems.append(message)
        sys.stderr.write(f"perfbench: FAILED {message}\n")


def run_checked(argv: list[str]) -> dict:
    """Run a child that must succeed."""
    res = run_child(argv)
    if res["exit"] != 0:
        raise RuntimeError(
            f"`{' '.join(argv[1:])}` exited with {res['exit']}, stdout {res['stdout'][-200:]!r}"
        )
    return res


def scaled_child(argv: list[str], pace_s: float | None = None) -> dict:
    """``run_child`` with a probe just before and just after, and ``scale``:
    ``PROBE_REF_S`` over the mean of every probe taken around and during the
    child, the factor that turns its times into reference-host seconds."""
    before = calibrate.probe()
    res = run_child(argv, pace_s)
    probes = [before, *res["probes"], calibrate.probe()]
    res["scale"] = PROBE_REF_S / statistics.fmean(probes)
    res["probes"] = probes
    return res


def _fits(start: float, durations: list[float], seconds: float) -> bool:
    """Whether another pass of the median duration so far ends within ``seconds``."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def timed_run(invs, rng: random.Random, seconds: float, checker: Checker, ctx: dict) -> dict:
    """Passes over ``invs`` for ``seconds``; times are scaled to the reference host.

    The speed of a shared VM's CPU swings between two levels about 1.6x
    apart every second or two, and its average drifts over minutes.  So the benchmark and its
    children share one CPU, each invocation is stopped every ``PACE_S``
    seconds of running while a calibration probe is timed, and its wall and
    CPU time are multiplied by its ``scale`` (see ``scaled_child``).  Every
    invocation is preceded by ``SETUP_PER_INVOCATION`` set-up samples
    (``import braidchow.cli``), paced and scaled the same way.
    The raw medians go into the context.
    """
    setup_argv = [sys.executable, "-c", "import braidchow.cli"]
    # untimed first run: compiles the bytecode cache of a fresh checkout
    run_checked(setup_argv)
    ctx["bare_interpreter_s"] = statistics.median(
        run_checked([sys.executable, "-c", "pass"])["wall_s"] for _ in range(SETUP_SAMPLES)
    )
    raw = {"wall_s": [], "cpu_s": [], "setup_s": [], "probe_s": []}
    walls, cpus, rss, setup, durations = [], [], [], [], []
    start = time.perf_counter()
    while not durations or _fits(start, durations, seconds):
        pass_start = time.perf_counter()
        order = rng.sample(invs, len(invs))
        ctx["orders"].append([inv.label for inv in order])
        wall = cpu = raw_wall = raw_cpu = peak = 0.0
        for inv in order:
            for _ in range(SETUP_PER_INVOCATION):
                res = scaled_child(setup_argv, SETUP_PACE_S)
                if res["exit"] != 0:
                    raise RuntimeError(f"`import braidchow.cli` exited with {res['exit']}")
                setup.append(res["wall_s"] * res["scale"])
                raw["setup_s"].append(res["wall_s"])
            res = scaled_child([sys.executable, "-m", "braidchow", *inv.argv], PACE_S)
            digest = hashlib.sha256(res["stdout"]).hexdigest()
            checker.check(inv, res["exit"], digest, res["stdout"])
            wall += res["wall_s"] * res["scale"]
            cpu += res["cpu_s"] * res["scale"]
            raw_wall += res["wall_s"]
            raw_cpu += res["cpu_s"]
            peak = max(peak, res["rss_mb"])
            raw["probe_s"].extend(res["probes"])
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        raw["wall_s"].append(raw_wall)
        raw["cpu_s"].append(raw_cpu)
        durations.append(time.perf_counter() - pass_start)
    ctx["samples"] = {
        "wall_s": len(walls),
        "cpu_s": len(cpus),
        "peak_rss_mb": len(rss),
        "setup_s": len(setup),
        "ok_frac": checker.attempted,
        "probe_s": len(raw["probe_s"]),
    }
    ctx["raw_medians"] = {name: statistics.median(v) for name, v in raw.items()}
    ctx["pass_wall_s"] = walls
    ctx["pass_raw_wall_s"] = raw["wall_s"]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1 - checker.failed / checker.attempted,
        "setup_s": statistics.median(setup),
    }


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


def _sum_layers(per_invocation: list[dict]) -> dict:
    """Layer metrics of one pass: times and counts add up, bit sizes take the max."""
    total: dict[str, float] = {}
    for metrics in per_invocation:
        for name, value in metrics.items():
            if name.endswith(".coeff_bits"):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def traced_run(invs, rng: random.Random, seconds: float, checker: Checker, ctx: dict,
               names: list[str]) -> dict:
    tracer = str(HERE / "tracer.py")
    plain_walls, traced_walls, round_walls, rounds = [], [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or _fits(start, round_walls, seconds):
        round_start = time.perf_counter()
        order = rng.sample(invs, len(invs))
        ctx["orders"].append([inv.label for inv in order])
        plain, traced = [], []
        for inv in order:
            for mode, sink in (("plain", plain), ("traced", traced)):
                res = run_child([sys.executable, tracer, mode, *inv.argv])
                lines = res["stdout"].decode().splitlines()
                if res["exit"] != 0 or not lines:
                    checker.fail(f"tracer {mode} {inv.label} exited with {res['exit']}")
                    report = {"exit": None, "sha256": None, "wall_s": 0.0, "metrics": {}}
                else:
                    report = json.loads(lines[-1])
                checker.check(inv, report["exit"], report["sha256"])
                sink.append(report)
        plain_walls.append(sum(r["wall_s"] for r in plain))
        traced_walls.append(sum(r["wall_s"] for r in traced))
        rounds.append(_sum_layers([r["metrics"] for r in traced]))
        round_walls.append(time.perf_counter() - round_start)
    counts = [{k: v for k, v in r.items() if not _is_time(k)} for r in rounds]
    for i, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            diff = sorted(k for k in other.keys() | counts[0].keys()
                          if other.get(k) != counts[0].get(k))
            checker.fail(f"traced round {i} counts differ from round 1: {diff}")
    ctx["samples"] = {name: len(rounds) for name in names}
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif _is_time(name):
            out[name] = statistics.median(r.get(name, 0.0) for r in rounds)
        else:
            out[name] = counts[0].get(name, 0)
    return out


def run_context(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
        "orders": [],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidchow" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no braidchow sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    # a terminated run still ends (and continues) the child it paused
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ctx = run_context(args)
    invs = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    checker = Checker()
    try:
        if args.trace:
            values = traced_run(invs, rng, args.seconds, checker, ctx, list(units))
        else:
            # the probes must measure the CPU that the program runs on
            ctx["pinned_cpu"] = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {ctx["pinned_cpu"]})
            values = timed_run(invs, rng, args.seconds, checker, ctx)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
