"""Spans and call counts around wittkit's public functions, installed from
outside the package.

Every public function of a layer's modules, and every public method of the
classes they define, is replaced by a wrapper: in the module that defines it,
in every wittkit module that imported it by name, and in module-level dicts
that hold it (the suite registry).  A wrapper counts the call and, when the
call crosses from one layer into another (or enters a suite), records a span
(name, start, end, parent) in flat arrays kept in memory until the run ends.
A layer's self time is its spans' time minus the time of their child spans.

Install before the package builds any table: the generated Witt polynomials
bind the kernel functions they call when they are compiled.
"""

import functools
import importlib
import sys
import time
import types
from array import array

import numpy as np

# layer -> the modules that make it up
LAYERS = {
    "rings": ("wittkit._kernel", "wittkit._kernel._fallback", "wittkit._kernel._speedups", "wittkit.rings"),
    "witt": ("wittkit.witt",),
    "tilt": ("wittkit.tilt",),
    "kaehler": ("wittkit.kaehler", "wittkit.snf", "wittkit.modlin"),
    "sequences": ("wittkit.sequences",),
    "tate": ("wittkit.tate",),
    "suites": ("wittkit.suites",),
    "cli": ("wittkit.cli", "wittkit.report"),
}
LAYER_OF_MODULE = {m: layer for layer, mods in LAYERS.items() for m in mods}
LAYER_NAMES = tuple(LAYERS)
_OUTSIDE = -1  # the benchmark's own code


class Tracer:
    def __init__(self):
        self.names = []  # fn id -> "module.qualname"
        self.fn_layer = []  # fn id -> layer index
        self.counts = []  # fn id -> calls
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.map_evals = [0]  # calls of finite-complex maps
        self.elements = [0]  # carrier elements enumerated
        self._layer_stack = [_OUTSIDE]
        self._span_stack = [-1]
        self._restore = []

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, qualname, layer, always_span):
        fid = len(self.names)
        self.names.append(qualname)
        self.fn_layer.append(layer)
        self.counts.append(0)
        counts = self.counts
        layer_stack, span_stack = self._layer_stack, self._span_stack
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[fid] += 1
            if layer_stack[-1] == layer and not always_span:
                return fn(*args, **kwargs)
            idx = len(span_fn)
            span_fn.append(fid)
            span_parent.append(span_stack[-1])
            span_end.append(0.0)
            layer_stack.append(layer)
            span_stack.append(idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                layer_stack.pop()
                span_stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every public function and method of the traced layers."""
        wrappers = {}  # id(original) -> wrapper
        for modname, layer_name in LAYER_OF_MODULE.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:  # the compiled kernel is optional
                continue
            layer = LAYER_NAMES.index(layer_name)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == modname:
                    for mattr, meth in list(vars(obj).items()):
                        if mattr.startswith("_") or not isinstance(meth, types.FunctionType):
                            continue
                        w = self._wrap(meth, f"{layer_name}.{obj.__name__}.{mattr}", layer, False)
                        self._restore.append((obj, mattr, meth))
                        setattr(obj, mattr, w)
                elif _is_function(obj) and not attr.startswith("_") and id(obj) not in wrappers:
                    if _home_layer(obj) == layer_name:
                        always = layer_name == "suites" and attr.startswith("suite_")
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer_name}.{attr}", layer, always))
        # rebind every reference held by a wittkit module: its own name, names
        # imported from elsewhere, and values of module-level dicts
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("wittkit") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)][1]
        self._instrument_sequences(sys.modules["wittkit.sequences"])
        return self

    def _instrument_sequences(self, sequences):
        """Count complex-map evaluations and enumerated carrier elements.

        The maps are closures built inside sequences, so they are wrapped
        as each FiniteComplex is constructed.
        """
        map_evals, elements = self.map_evals, self.elements

        def counted(f):
            def evaluate(x):
                map_evals[0] += 1
                return f(x)

            return evaluate

        complex_init = sequences.FiniteComplex.__init__

        def init(obj, name, carriers, maps):
            complex_init(obj, name, carriers, [counted(f) for f in maps])

        carrier_elements = sequences.Carrier.elements

        def enumerate_counted(obj):
            for x in carrier_elements(obj):
                elements[0] += 1
                yield x

        for cls, attr, new in (
            (sequences.FiniteComplex, "__init__", init),
            (sequences.Carrier, "elements", enumerate_counted),
        ):
            self._restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, new)

    def clear_spans(self):
        for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end):
            del arr[:]

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # --- reduction --------------------------------------------------------------

    def count(self, qualnames):
        want = set(qualnames)
        return sum(c for name, c in zip(self.names, self.counts) if name in want)

    def self_times(self):
        """{layer: self seconds} and {fn name: inclusive seconds of its spans}."""
        n = len(self.span_fn)
        fn = np.frombuffer(self.span_fn, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.span_end, count=n) - np.frombuffer(self.span_start, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        fn_layer = np.array(self.fn_layer, dtype=np.int64)
        per_layer = np.bincount(fn_layer[fn], weights=own, minlength=len(LAYER_NAMES))
        per_fn = np.bincount(fn, weights=dur, minlength=len(self.names))
        layers = {name: float(per_layer[i]) for i, name in enumerate(LAYER_NAMES)}
        inclusive = {self.names[i]: float(t) for i, t in enumerate(per_fn) if t}
        return layers, inclusive


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or isinstance(obj, functools._lru_cache_wrapper)


def _home_layer(fn):
    return LAYER_OF_MODULE.get(getattr(fn, "__module__", None))
