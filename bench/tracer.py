"""Span recorder wrapped around boxcomp's module boundaries.

`Tracer.install` replaces, in every boxcomp module, each function that the
module imported from another boxcomp module (say `certify.min_comm_cost` or
`decompose.solve_lp`) with a wrapper that records one span per call.  It also
wraps the public methods, properties and `__init__` of every class a module
defines, because other modules call them: `measures` calls
`CorrelationBox.marginal_a` and `decompose` builds `CorrelationBox`es.  A
method records a span only when called from another module; inside its own
module it is part of the caller's work, and spans there would only add cost.
A few calls that stay inside one module are wrapped too, because the
per-layer metrics need them: `cli.main` and `cli.build_parser`, the simulate functions
`cli` imports lazily, and the chunk kernel.  `Tracer.uninstall` puts the
original functions back, so traced and untraced rounds can alternate in one
process.

A layer is one module of the package.  A span holds its layer and function,
its parent span, the operation index, start and end; spans stay in memory,
in flat arrays, until `write`.  A span's self time is its duration minus the
durations of its child spans.

`untraced_calls` runs code under `sys.settrace` and lists every call from
one boxcomp module into another that did not pass through a wrapper.  Such a
call would put the callee's time into the caller's layer.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("cli", "boxcore", "measures", "simplex", "decompose", "certify", "simulate")


def _chunk_extra(args, kwargs, result):
    n_trials = args[3] if len(args) > 3 else kwargs["n_trials"]
    return {"chunks": len(result), "trials": int(n_trials)}


def _is_traced_member(name, member):
    if name.startswith("__") and name != "__init__":
        return False
    return inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod))


class Tracer:
    def __init__(self):
        self.keys = []             # (layer, function) per key id
        self.key = array("i")      # per span: key id, parent span, op index, start, end
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}            # span id -> extra fields
        self.op = -1               # set by the runner before each op
        self._stack = []
        self._patches = []         # (owner, attribute, original, wrapped)

    def _wrap(self, layer, name, fn, extra=None, home=None):
        """A wrapper of fn that records a span, unless called from module `home`."""
        kid = len(self.keys)
        self.keys.append((layer, name))
        key, parent, op_of, start, end = self.key, self.parent, self.op_of, self.start, self.end
        extras, stack, clock = self.extra, self._stack, time.perf_counter
        caller = sys._getframe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if home is not None and caller(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            sid = len(key)
            key.append(kid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                extras[sid] = {"raised": type(exc).__name__}
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if extra is not None:
                extras[sid] = extra(args, kwargs, result)
            return result

        return traced

    def _add(self, owner, attr, layer, name, extra=None, home=None):
        orig = vars(owner)[attr]
        if isinstance(orig, property):
            new = property(self._wrap(layer, name, orig.fget, home=home), orig.fset, orig.fdel,
                           orig.__doc__)
        elif isinstance(orig, (classmethod, staticmethod)):
            new = type(orig)(self._wrap(layer, name, orig.__func__, home=home))
        else:
            new = self._wrap(layer, name, orig, extra, home)
        self._patches.append((owner, attr, orig, new))

    def _build(self):
        mods = {layer: importlib.import_module(f"boxcomp.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                if inspect.isfunction(obj) and owner != mod.__name__ and owner.startswith("boxcomp."):
                    self._add(mod, attr, owner.rsplit(".", 1)[1], attr)
                elif inspect.isclass(obj) and owner == mod.__name__:
                    for name, member in list(vars(obj).items()):
                        if _is_traced_member(name, member):
                            # calls from inside the class's own module stay untraced
                            self._add(obj, name, layer, f"{obj.__name__}.{name}",
                                      home=mod.__name__)
        for attr in ("main", "build_parser"):
            self._add(mods["cli"], attr, "cli", attr)
        for attr in ("sweep_angles", "write_sweep_csv", "simulate_singlet"):
            self._add(mods["simulate"], attr, "simulate", attr)
        self._add(mods["simulate"], "chunk_xor_counts", "simulate", "chunk_xor_counts",
                  _chunk_extra)

    def install(self):
        if not self._patches:
            self._build()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def write(self, path):
        """Write the spans as gzipped JSON lines, times in ms from the first span.

        The first line names the fields of the lists on the following lines.
        """
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "op", "parent", "layer", "name", "start_ms",
                                            "dur_ms", "extra"]}) + "\n")
            for i, (kid, parent, op, start, end) in enumerate(
                    zip(self.key, self.parent, self.op_of, self.start, self.end)):
                layer, name = self.keys[kid]
                row = [i, op, parent, layer, name, round((start - t0) * 1e3, 4),
                       round((end - start) * 1e3, 4), self.extra.get(i)]
                fh.write(json.dumps(row) + "\n")


def untraced_calls(fn):
    """Run fn() under sys.settrace; count the boxcomp calls that cross modules untraced.

    A call counts when the callee's code and its caller's code both lie in the
    boxcomp package but in different modules.  A wrapped call never counts:
    its callee's caller is the wrapper in this file.
    """
    src = os.path.dirname(importlib.import_module("boxcomp").__file__) + os.sep
    found = collections.Counter()

    def on_call(frame, event, arg):
        callee = frame.f_code.co_filename
        caller = frame.f_back
        if (callee.startswith(src) and caller is not None
                and caller.f_code.co_filename.startswith(src)
                and caller.f_code.co_filename != callee):
            found[f"{caller.f_globals['__name__']} -> "
                  f"{frame.f_globals['__name__']}.{frame.f_code.co_qualname}"] += 1
        return None

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return found


def layer_metrics(tracer, n_ops):
    """Per-layer metrics, per operation, from the tracer's spans of `n_ops` ops."""
    spans = list(zip(tracer.key, tracer.parent, tracer.start, tracer.end))
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total = collections.Counter(), collections.Counter()
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for sid, (kid, _, start, end) in enumerate(spans):
        key = tracer.keys[kid]
        calls[key] += 1
        total[key] += end - start
        self_by_layer[key[0]] += end - start - child[sid]
    infeasible = chunks = trials = 0
    for sid, extra in tracer.extra.items():
        if extra.get("raised") == "Infeasible" and tracer.keys[tracer.key[sid]] == ("simplex", "solve_lp"):
            infeasible += 1
        chunks += extra.get("chunks", 0)
        trials += extra.get("trials", 0)

    def ms(layer, name):
        return total[(layer, name)] / n_ops * 1e3

    def count(layer, name):
        return calls[(layer, name)] / n_ops

    chunk_s = total[("simulate", "chunk_xor_counts")]
    measures_calls = sum(n for (layer, _), n in calls.items() if layer == "measures")
    m = {
        "simulate.chunk_ms": (chunk_s / chunks * 1e3 if chunks else 0.0, "ms"),
        "simulate.chunks": (chunks / n_ops, "count/op"),
        "simulate.trials_per_s": (trials / chunk_s if chunk_s else 0.0, "1/s"),
        "simulate.simulate_singlet_ms": (ms("simulate", "simulate_singlet"), "ms/op"),
        "simplex.solve_lp_calls": (count("simplex", "solve_lp"), "count/op"),
        "simplex.solve_lp_ms": (ms("simplex", "solve_lp"), "ms/op"),
        "simplex.infeasible_calls": (infeasible / n_ops, "count/op"),
        "decompose.min_comm_cost_calls": (count("decompose", "min_comm_cost"), "count/op"),
        "decompose.min_comm_cost_ms": (ms("decompose", "min_comm_cost"), "ms/op"),
        "decompose.random_feasible_box_calls": (count("decompose", "random_feasible_box"),
                                                "count/op"),
        "cli.calls": (count("cli", "main"), "count/op"),
        "cli.main_ms": (ms("cli", "main"), "ms/op"),
        "cli.build_parser_ms": (ms("cli", "build_parser"), "ms/op"),
        "boxcore.load_box_ms": (ms("boxcore", "load_box"), "ms/op"),
        "boxcore.strategy_box_calls": (count("boxcore", "strategy_box"), "count/op"),
        "boxcore.mix_calls": (count("boxcore", "mix"), "count/op"),
        "measures.calls": (measures_calls / n_ops, "count/op"),
        "certify.complementarity_report_ms": (ms("certify", "complementarity_report"),
                                              "ms/op"),
        "certify.run_property_suite_ms": (ms("certify", "run_property_suite"), "ms/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_by_layer[layer] / n_ops * 1e3, "ms/op")
    return m
