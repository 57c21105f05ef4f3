"""In-memory span tracer that wraps gasketfif functions from outside.

The library itself has no tracing hooks, so every traced function is
replaced, for the duration of a traced pass, by a wrapper at every module
attribute that binds it (``locate`` is bound in ``gasket``, ``evaluator``
and ``analysis``; each binding is wrapped).  Classes are traced through
their constructor or class method instead, so ``isinstance`` keeps working.

A span records name, start, end, parent span and pass id.  Spans live in
column arrays (32 bytes each) and are written out once, by ``save``, when
the run ends.  Self time is a span's duration minus its traced children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: traced functions: (module, attribute path) -> span name is "module.path"
TRACED = (
    ("gasket", "locate"),
    ("gasket", "enumerate_vertices"),
    ("gasket", "word_map_inverse"),
    ("model", "DataSet.build"),
    ("model", "build_model"),
    ("model", "check_compatibility"),
    ("evaluator", "eval_exact"),
    ("evaluator", "eval_approx"),
    ("evaluator", "chaos_game"),
    ("evaluator", "samples_to_csv"),
    ("evaluator", "rb_apply"),
    ("evaluator", "solve_fixed_point"),
    ("grids", "FactorGrid"),
    ("grids", "product_values"),
    ("analysis", "oscillation"),
    ("analysis", "box_count"),
    ("analysis", "box_count_cloud"),
    ("analysis", "holder_fit"),
    ("cli", "build_from_config"),
)

#: one span per CLI verb, opened by the benchmark around each ``main`` call
CLI_VERBS = ("build", "eval", "grid", "chaos", "dim", "holder", "check")

SPAN_NAMES = tuple(f"{m}.{p}" for m, p in TRACED) + tuple(
    f"cli.{v}" for v in CLI_VERBS
)


def _samples_arg(args, kwargs):
    return kwargs["samples"] if "samples" in kwargs else args[1]


#: counters derived from a traced call: span name -> (counter, f(result, args, kwargs))
COUNTERS = {
    "evaluator.chaos_game": ("evaluator.chaos_game.samples", lambda r, a, k: len(r)),
    "evaluator.solve_fixed_point": (
        "evaluator.solve_fixed_point.iterations",
        lambda r, a, k: r.iterations,
    ),
    "grids.product_values": ("grids.product_values.values", lambda r, a, k: r[2].size),
    "analysis.oscillation": ("analysis.oscillation.cell_pairs", lambda r, a, k: r.values.size),
    "analysis.box_count_cloud": (
        "analysis.box_count_cloud.samples",
        lambda r, a, k: len(_samples_arg(a, k)),
    ),
}


class Tracer:
    """Collects spans and per-pass aggregates (calls, self time, errors)."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._child = []
        self.current_pass = -1
        self._agg = None
        self._counts = None
        self.passes = {}  # pass id -> {"spans": {name: [calls, self_s, errors]}, "counters": {}}

    def begin_pass(self, pid):
        self.current_pass = pid
        self._agg = [[0, 0.0, 0] for _ in self.names]
        self._counts = {}

    def end_pass(self):
        spans = {n: tuple(a) for n, a in zip(self.names, self._agg)}
        self.passes[self.current_pass] = {"spans": spans, "counters": self._counts}
        self.current_pass = -1
        self._agg = self._counts = None

    def count(self, counter, amount):
        if self._counts is not None:
            self._counts[counter] = self._counts.get(counter, 0) + amount

    def _enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        return idx, t0

    def _exit(self, nid, idx, t0, ok):
        t1 = perf_counter()
        self.end[idx] = t1
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - t0
        if self._child:
            self._child[-1] += dur
        agg = self._agg[nid]
        agg[0] += 1
        agg[1] += dur - child
        if not ok:
            agg[2] += 1

    @contextmanager
    def span(self, name):
        nid = self._ids[name]
        idx, t0 = self._enter(nid)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(nid, idx, t0, ok)

    def wrap(self, name, fn):
        nid = self._ids[name]
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, t0 = tracer._enter(nid)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(nid, idx, t0, ok)
            if counter is not None:
                tracer.count(counter[0], counter[1](result, args, kwargs))
            return result

        return traced

    def durations(self, name):
        """Durations in seconds of every recorded span with this name."""
        nid = self._ids[name]
        names = np.frombuffer(self.name, dtype=np.int32)
        sel = names == nid
        return (np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel])

    def save(self, path, provenance):
        """Write all spans and the run's provenance to one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            provenance=np.array(json.dumps(provenance)),
        )


def _bindings(target):
    """Every (module, attribute) of the loaded gasketfif package that binds
    the object ``target``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gasketfif" or modname.startswith("gasketfif.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is target:
                out.append((mod, attr))
    return out


@contextmanager
def patched(tracer):
    """Install the tracer's wrappers for the body of the with-block."""
    undo = []
    try:
        for modname, path in TRACED:
            name = f"{modname}.{path}"
            mod = importlib.import_module(f"gasketfif.{modname}")
            head, _, tail = path.partition(".")
            obj = getattr(mod, head)
            if isinstance(obj, type):
                # trace the class through its constructor or a class method
                attr = tail or "__init__"
                raw = vars(obj)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    new = tracer.wrap(name, raw)
                setattr(obj, attr, new)
                undo.append((obj, attr, raw))
            else:
                wrapper = tracer.wrap(name, obj)
                for owner, attr in _bindings(obj):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, obj))
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
