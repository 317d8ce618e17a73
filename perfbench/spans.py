"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of each formheat module
(one module group per layer) from outside the program: it never edits the
package.  Classes themselves are left alone, so ``isinstance`` checks inside
the package keep working; only functions, methods, classmethods and
staticmethods are replaced.  Because modules import names directly
(``from .weights import weighted_cell_integral``), every formheat module
namespace that holds an original function gets the wrapper too.

Each call records a span ``(id, parent, name, t0, t1)``.  Spans stay in
memory, up to a cap, and per-name totals (calls, time, self time) are kept
for every call.  Self time is the span's duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# module -> layer; the layer names are the package's own modules
LAYER_MODULES = {
    "formheat.geometry.mesh": "geometry",
    "formheat.geometry.surface": "geometry",
    "formheat.geometry.distance": "geometry",
    "formheat.geometry.charts": "geometry",
    "formheat.weights": "weights",
    "formheat.assembly": "assembly",
    "formheat.evolution": "evolution",
    "formheat.spectral": "spectral",
    "formheat.cli": "cli",
}

# span names whose individual durations are kept (for percentiles)
SAMPLED = ("evolution.ThetaStepper.step",)


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.stack = []            # open spans: [span_id, child_time]
        self.stats = {}            # name -> [calls, total_s, self_s]
        self.samples = {name: [] for name in SAMPLED}
        self.maxima = {}           # name -> largest observed value
        self.spans = []
        self.dropped = 0
        self._next_id = 0

    def observe_max(self, name, value):
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, name, fn, observe=None):
        stack = self.stack
        stats = self.stats
        spans = self.spans
        samples = self.samples.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if samples is not None:
                    samples.append(dur)
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if observe is not None:
                self.observe_max(*observe(args, kwargs, result))
            return result

        return traced

    def summary(self):
        return {"stats": self.stats, "samples": self.samples,
                "maxima": self.maxima, "spans_recorded": len(self.spans),
                "spans_dropped": self.dropped}

    def write_spans(self, path, op_id):
        names = sorted({s[2] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "names": names, "dropped": self.dropped,
                       "fields": ["id", "parent", "name", "t0", "t1"],
                       "spans": [[i, p, index[n], t0, t1]
                                 for i, p, n, t0, t1 in self.spans]}, fh)


def _public_callables(module):
    """(owner, attribute, raw, function, qualified name) for every public
    function and method defined in ``module``."""
    modname = module.__name__
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == modname:
            yield module, name, obj, obj, name
        elif inspect.isclass(obj) and obj.__module__ == modname:
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                fn = raw.__func__ if isinstance(
                    raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn):
                    continue            # properties, constants
                # generated dataclass __init__s are not the module's code
                if fn.__code__.co_filename != module.__file__:
                    continue
                yield obj, attr, raw, fn, f"{name}.{attr}"


def install(tracer, observers=None):
    """Wrap every public callable of the layer modules.

    ``observers`` maps a span name to ``(args, kwargs, result) ->
    (metric, value)``; the tracer keeps the largest value per metric.
    """
    observers = observers or {}
    replaced = {}
    for modname, layer in LAYER_MODULES.items():
        module = sys.modules[modname]
        for owner, attr, raw, fn, qualname in _public_callables(module):
            span = f"{layer}.{qualname}"
            wrapper = tracer.wrap(span, fn, observers.get(span))
            if owner is module:
                replaced[id(fn)] = (fn, wrapper)
                setattr(module, attr, wrapper)
            elif isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(wrapper))
            else:
                setattr(owner, attr, wrapper)
    # rebind names that other formheat modules imported directly
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "formheat"
                                  or name.startswith("formheat.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def wrap_external(tracer, owner, attr, span, observe=None):
    """Trace a library function reached through a module attribute."""
    setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), observe))
