"""Span tracing around braidchow's layers, installed from outside the program.

``Tracer.install`` wraps the public functions of each layer and rebinds every
name under which a braidchow module looks the original up (``cli.solve_B``,
``checks.solve_B``, ``solver.plethysm``, the ``SymSeries`` operator slots,
the entries of ``checks.CHECKS``); ``uninstall`` puts every original back.
Each wrapped call, and each ``next`` on a wrapped generator, records a span
(layer, start, end, parent).  ``layer_metrics`` derives from the spans every
layer's inclusive and self time (duration minus the time its child spans
cover), and adds the exact work counts recorded at the same boundaries.

Run as a script, this module makes one CLI invocation in-process and prints
one JSON line: the exit code, the sha256 of stdout, the wall time of
``cli.main`` and, with ``traced``, the layer metrics:

    PYTHONPATH=src python3 perfbench/tracer.py traced table --max-n 6
    PYTHONPATH=src python3 perfbench/tracer.py plain table --max-n 6
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import io
import json
import re
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

# -- work counters, called with (counts, layer, args, result) ------------------


def _count_series_terms(counts, layer, args, result):
    counts[layer + ".terms"] += sum(len(c.terms) for c in result.components.values())


def _count_plethysm(counts, layer, args, result):
    counts[layer + ".in_terms"] += len(args[0].terms)
    counts[layer + ".out_terms"] += len(result.terms)


def _count_solution(counts, layer, args, result):
    coeffs = [c for comp in result.components.values() for c in comp.terms.values()]
    counts[layer + ".terms"] += len(coeffs)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0
    )
    counts[layer + ".coeff_bits"] = max(counts[layer + ".coeff_bits"], bits)


def _count_layers(counts, layer, args, result):
    counts[layer + ".layers"] += len(result)


# (module, attribute, layer, counter); a generator function's layer also
# counts the items it yields under the name given in GENERATOR_ITEMS.
TARGETS = [
    ("cli", "main", "cli", None),
    ("pointcounts", "m_series", "pointcounts.m_series", _count_series_terms),
    ("symseries", "plethysm", "symseries.plethysm", _count_plethysm),
    ("symseries", "SymSeries.__mul__", "symseries.mul", None),
    ("symseries", "SymSeries.__add__", "symseries.add", None),
    ("solver", "solve_B", "solver.solve_B", _count_solution),
    ("solver", "_divexact_tminus1", "solver.divexact", None),
    ("solver", "verify_functional_equation", "solver.verify_functional_equation", None),
    ("solver", "level_filtration", "solver.level_filtration", _count_layers),
    ("solver", "hnum_stirling", "solver.hnum_stirling", None),
    ("solver", "hnum_bell", "solver.hnum_bell", None),
    ("solver", "hnum_lattice", "solver.hnum_lattice", None),
    ("characters", "schur_expand", "characters.schur_expand", None),
    ("characters", "character_table", "characters.character_table", None),
    ("leveltrees", "enumerate_level_trees", "leveltrees.enumerate_level_trees", None),
    ("leveltrees", "epoly_Bn", "leveltrees.epoly_Bn", None),
    ("leveltrees", "level_tree_census", "leveltrees.level_tree_census", None),
    ("leveltrees", "chain_counts_by_length", "leveltrees.chain_counts_by_length", None),
    ("combinat", "set_partitions", "combinat.set_partitions", None),
]

GENERATOR_ITEMS = {
    "leveltrees.enumerate_level_trees": "trees",
    "combinat.set_partitions": "yielded",
}

# every public function of this module is one layer, "serialize"
WHOLE_MODULE_LAYERS = ("serialize",)


def check_slug(name: str) -> str:
    """Metric-name form of a registered check's name."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


class Tracer:
    """Spans and counts of one traced process; install, run, uninstall."""

    def __init__(self):
        # closed spans (layer, start, end, parent, id); open ones (id, layer, start, parent)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[tuple[int, str, float, int]] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._checks_saved = None

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer: str) -> int:
        idx = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((idx, layer, time.perf_counter(), parent))
        return idx

    def _exit(self, idx: int):
        end = time.perf_counter()
        top, layer, start, parent = self._stack.pop()
        if top != idx:
            raise RuntimeError("span stack out of order")
        # spans are stored in closing order; ids and parents are in opening order
        self.spans.append((layer, start, end, parent, idx))

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, layer: str, counter=None):
        tracer = self
        calls = layer + ".calls"

        if inspect.isgeneratorfunction(fn):
            items = layer + "." + GENERATOR_ITEMS[layer]

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.counts[calls] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    tracer.counts[items] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.counts[calls] += 1
            if counter is not None:
                counter(tracer.counts, layer, args, result)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        """Point every braidchow name bound to ``original`` at ``replacement``."""
        found = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "braidchow" or modname.startswith("braidchow.")):
                continue
            namespaces = [module]
            namespaces += [v for v in vars(module).values() if inspect.isclass(v)
                           and v.__module__ == modname]
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, replacement)
                        found = True
        if not found:
            raise LookupError(f"no braidchow name is bound to {original!r}")

    def install(self):
        """Wrap every target layer and every registered check."""
        if self._restore or self._checks_saved is not None:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("braidchow.cli")
        try:
            for modname, attr, layer, counter in TARGETS:
                obj = importlib.import_module("braidchow." + modname)
                for part in attr.split("."):
                    obj = getattr(obj, part)
                self._rebind(obj, self._wrap(obj, layer, counter))
            for modname in WHOLE_MODULE_LAYERS:
                module = importlib.import_module("braidchow." + modname)
                for attr, fn in list(vars(module).items()):
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not attr.startswith("_")):
                        self._rebind(fn, self._wrap(fn, modname))
            checks = importlib.import_module("braidchow.checks")
            self._checks_saved = list(checks.CHECKS)
            checks.CHECKS[:] = [
                (name, self._wrap(fn, "checks." + check_slug(name)))
                for name, fn in self._checks_saved
            ]
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every rebound name, in reverse order of rebinding."""
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)
        if self._checks_saved is not None:
            importlib.import_module("braidchow.checks").CHECKS[:] = self._checks_saved
            self._checks_saved = None

    # -- derived metrics -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: ``.s`` (inclusive), ``.self_s`` and the recorded counts."""
        if self._stack:
            raise RuntimeError("spans still open")
        child_time: dict[int, float] = {}
        for _layer, start, end, parent, _idx in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for layer, start, end, _parent, idx in self.spans:
            out[layer + ".s"] = out.get(layer + ".s", 0.0) + (end - start)
            self_s = end - start - child_time.get(idx, 0.0)
            out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + self_s
        out.update(self.counts)
        return out


def run_invocation(argv: list[str], tracer: Tracer | None = None) -> dict:
    """Run ``braidchow.cli.main(argv)`` in this process, stdout captured."""
    cli = importlib.import_module("braidchow.cli")
    buf = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        with redirect_stdout(buf):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "exit": code,
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "wall_s": wall,
    }
    if tracer is not None:
        result["metrics"] = tracer.layer_metrics()
    return result


def main(args: list[str]) -> int:
    if not args or args[0] not in ("traced", "plain"):
        sys.stderr.write("usage: tracer.py traced|plain BRAIDCHOW-ARGS...\n")
        return 2
    tracer = Tracer() if args[0] == "traced" else None
    print(json.dumps(run_invocation(args[1:], tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
