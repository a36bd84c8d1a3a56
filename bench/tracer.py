"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps every public function and public method of each
divilab module, plus the private names another module imports, and rebinds
each name wherever a divilab module holds it, so a call from `experiments`
into `tables` gets its own span.  Each step of a generator the program
returns is a span of its own, named `<function>/next`.  Spans (name, layer,
start, end, parent, phase) stay in memory and are written out when the run
ends.  Self time is a span's duration minus the time its child spans cover.

Phase 0 is the set-up; phases 1..k are the timed passes.  Each per-layer
metric is the set-up's value plus the mean over passes, so it describes the
set-up and one pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# module -> layer; `density` only builds result records for `multiples`.
LAYER_OF = {
    "sieve": "sieve",
    "tables": "tables",
    "arith": "arith",
    "divgeom": "divgeom",
    "multiples": "multiples",
    "density": "multiples",
    "locallaws": "locallaws",
    "experiments": "experiments",
    "cli": "cli",
}

PER_LAYER = {  # name -> (unit, better)
    "sieve.self_s": ("s", "lower"),
    "sieve.calls": ("count", "lower"),
    "sieve.entries": ("count", "lower"),
    "tables.self_s": ("s", "lower"),
    "tables.calls": ("count", "lower"),
    "tables.cells": ("count", "lower"),
    "tables.bytes": ("B", "lower"),
    "arith.self_s": ("s", "lower"),
    "arith.calls": ("count", "lower"),
    "arith.divisors": ("count", "lower"),
    "divgeom.self_s": ("s", "lower"),
    "divgeom.calls": ("count", "lower"),
    "multiples.self_s": ("s", "lower"),
    "multiples.calls": ("count", "lower"),
    "multiples.ie_subsets": ("count", "lower"),
    "multiples.pruned_subsets": ("count", "lower"),
    "multiples.exact_share": ("share", "higher"),
    "locallaws.self_s": ("s", "lower"),
    "locallaws.calls": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.calls": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.sieve_loads": ("count", "lower"),
    "cli.sieve_builds": ("count", "lower"),
    "cli.sieve_load_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, layer, name, start_ns, end_ns, phase)
        self.stack: list[int] = []
        self.layer_stack: list[str] = []
        self.next_id = 0
        self.phase = 0
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.phase, key)] += n

    def under(self, layer: str) -> bool:
        return layer in self.layer_stack

    def _span(self, layer: str, name: str, call):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        self.layer_stack.append(layer)
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.layer_stack.pop()
            self.spans.append((sid, parent, layer, name, t0, t1, self.phase))

    def wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)
        if hook is None and layer == "tables":
            hook = functools.partial(_cells, name=name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = tracer._span(layer, name, lambda: fn(*args, **kwargs))
                if hook:
                    hook(tracer, args, kwargs, it)
                while True:
                    try:
                        value = tracer._span(layer, name + "/next", lambda: next(it))
                    except StopIteration as stop:
                        return stop.value
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter_ns()
            out = tracer._span(layer, name, lambda: fn(*args, **kwargs))
            if hook:
                hook(tracer, args, kwargs, out, time.perf_counter_ns() - started)
            return out
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"divilab.{m}") for m in LAYER_OF}
        holders = [importlib.import_module("divilab")] + list(mods.values())
        replaced: dict[int, object] = {}
        for modname, mod in mods.items():
            layer = LAYER_OF[modname]
            imported = {name for other in holders if other is not mod
                        for name, obj in vars(other).items()
                        if inspect.isfunction(obj) and obj.__module__ == mod.__name__}
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") or name in imported:
                        replaced[id(obj)] = self.wrap(layer, f"{modname}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, modname, obj)
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_methods(self, layer: str, modname: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{modname}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qual, attr))

    # -- reporting ---------------------------------------------------------

    def metrics(self, passes: int, import_s: float, import_scipy_s: float) -> dict:
        dur = {}
        child = defaultdict(int)
        for sid, parent, _layer, _name, t0, t1, _phase in self.spans:
            dur[sid] = t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        setup = defaultdict(float)
        passed = defaultdict(float)
        for sid, _parent, layer, name, _t0, _t1, phase in self.spans:
            acc = setup if phase == 0 else passed
            acc[f"{layer}.self_s"] += (dur[sid] - child[sid]) / 1e9
            if not name.endswith("/next"):  # a generator's steps are not calls
                acc[f"{layer}.calls"] += 1
        for (phase, key), n in self.counts.items():
            (setup if phase == 0 else passed)[key] += n
        vals = {key: setup[key] + passed[key] / max(passes, 1) for key in PER_LAYER}
        queries = setup["multiples.ie_queries"] + passed["multiples.ie_queries"] / max(passes, 1)
        exact = setup["multiples.ie_exact"] + passed["multiples.ie_exact"] / max(passes, 1)
        vals["multiples.exact_share"] = exact / queries if queries else 0.0
        vals["cli.import_s"] = import_s
        vals["cli.import_scipy_s"] = import_scipy_s
        return {k: {"value": float(vals[k]), "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "start_ns", "end_ns", "phase"],
                       "spans": self.spans}, fh)


# -- counters taken at the layer boundaries ------------------------------------

def _sieve_made(tracer, args, kwargs, out, elapsed_ns, loaded):
    tracer.count("sieve.entries", out.limit + 1)
    if tracer.under("cli"):
        if loaded:
            tracer.count("cli.sieve_loads")
            tracer.count("cli.sieve_load_s", elapsed_ns / 1e9)
        else:
            tracer.count("cli.sieve_builds")


def _cells(tracer, args, kwargs, out, elapsed_ns=0, name=""):
    """Counts the integers a table function covers, read from its arguments
    (x + 1 for a table on 0..x), and the bytes of an array it hands to a
    caller outside `tables`."""
    bind = _CELLS.get(name)
    if bind is not None:
        tracer.count("tables.cells", bind(*args, **kwargs))
    elif args and isinstance(args[0], (int, np.integer)):
        tracer.count("tables.cells", int(args[0]) + 1)
    if isinstance(out, np.ndarray) and not tracer.under("tables"):
        tracer.count("tables.bytes", out.nbytes)


_CELLS = {  # table functions whose first argument is not the table's end x
    "tables.totient_segment": lambda lo, hi, *a, **k: hi - lo,
    "tables.multiples_mask": lambda gens, x: x + 1,
    "tables.divisor_lists": lambda x, segment=200_000, start=1: max(0, x - start + 1),
    "tables._check_cap": lambda *a, **k: 0,
}


def _subset_walk(tracer, args, kwargs, out, elapsed_ns=0):
    tracer.count("multiples.ie_subsets", (1 << len(args[0])) - 1)
    tracer.count("multiples.pruned_subsets", out[2])


def _bracket(tracer, args, kwargs, out, elapsed_ns=0):
    if out.method in ("exact_ie", "exact_ie_truncated"):
        tracer.count("multiples.ie_queries")
        tracer.count("multiples.ie_exact", out.method == "exact_ie")


def _divisors(tracer, args, kwargs, out, elapsed_ns=0):
    tracer.count("arith.divisors", out.tau)


HOOKS = {
    "sieve.SpfSieve.build": lambda t, a, k, out, ns=0: _sieve_made(t, a, k, out, ns, False),
    "sieve.SpfSieve.load": lambda t, a, k, out, ns=0: _sieve_made(t, a, k, out, ns, True),
    "multiples._subset_sums": _subset_walk,
    "multiples.density_bracket": _bracket,
    "arith.divisors": _divisors,
    "arith.divisor_mobius": lambda t, a, k, out, ns=0: t.count("arith.divisors", len(out)),
}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def scipy_import_seconds(python: str, env: dict, cwd: Path) -> float:
    """Seconds spent importing scipy when the CLI's imports run in a fresh
    process, from `python -X importtime`: the cumulative time of each scipy
    module whose importer is not itself a scipy module."""
    res = subprocess.run(
        [python, "-X", "importtime", "-c", "import divilab, divilab.experiments, divilab.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    if res.returncode != 0:
        raise RuntimeError(f"importtime probe failed: {res.stderr[-500:]}")
    rows = []
    for line in res.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    # importtime prints children before their parent, indented one level deeper
    total = 0
    for i, (depth, name, cum) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if not parent.startswith("scipy"):
            total += cum
    return total / 1e6
