"""Spans around the public functions of each avor3 module, installed from outside.

`install` replaces every public function of the traced modules, in every
avor3 module that holds a reference to it, by a wrapper that times the call.
Spans nest on a stack, so each span knows its parent: a span's self time is
its duration minus the time its child spans cover, and its total time is
counted only for the outermost span of a name (a recursive call is not
counted twice). Per-name sums are kept in memory and read once at the end,
so the trace needs no per-call storage.

The program itself is not changed; a name that no longer exists is simply
not wrapped, and the report lists only the spans that were.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# mhs is left out: the other modules use only its classes, whose methods are
# not wrapped, so time in mhs counts as self time of its callers (ssengine).
MODULES = ("linalg", "forms", "fan", "equivariant", "ssengine", "registry", "strata",
           "verify")


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counts = {}
        self._stack = []
        self._depth = {}
        self._seen_results = set()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, observe=None):
        """Time every call of `fn` as span `name`.

        `observe(tracer, result, exc)` sees each return value or exception and
        may add counts.
        """
        stack, depth = self._stack, self._depth
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                stat[2] += dt - frame[0]
                if not depth[name]:
                    stat[1] += dt
                if stack:
                    stack[-1][0] += dt
                if observe is not None:
                    observe(self, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def first_sight(self, obj):
        """True the first time a result object is seen (cache hits repeat it)."""
        key = id(obj)
        if key in self._seen_results:
            return False
        self._seen_results.add(key)
        return True

    def report(self):
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


# --- counters read from return values -----------------------------------------

def _observe_equivalent(tracer, result, exc):
    if result is not None and getattr(result, "verdict", None) == "equivalent":
        tracer.count("fan.equivalent.matches")


def _observe_stabilizer(tracer, result, exc):
    elements = getattr(result, "elements", None)
    if elements is not None and tracer.first_sight(result):
        tracer.count("fan.stabilizer.elements", len(elements))


def _observe_closure(tracer, result, exc):
    if result is not None:
        tracer.count("equivariant.closure.elements", len(result))


def _observe_resolve(tracer, result, exc):
    report = None
    if result is not None:
        report = result[1]
        tracer.count("ssengine.resolve.unique")
    elif exc is not None:
        report = getattr(exc, "report", None)
        kind = "ambiguous" if report is not None else "none"
        tracer.count("ssengine.resolve." + kind)
    if report is not None:
        tracer.count("ssengine.resolve.enumerated", report.enumerated)
        tracer.count("ssengine.resolve.kept", len(report.candidates))


OBSERVERS = {
    "fan.equivalent": _observe_equivalent,
    "fan.stabilizer": _observe_stabilizer,
    "equivariant.group_closure": _observe_closure,
    "ssengine.resolve": _observe_resolve,
}


def _public_functions(module):
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer, package="avor3"):
    """Wrap the public functions of MODULES wherever avor3 modules reference them."""
    replacements = {}
    for short in MODULES:
        try:
            module = importlib.import_module("%s.%s" % (package, short))
        except ImportError:
            continue
        for attr, fn in _public_functions(module):
            name = "%s.%s" % (short, attr)
            replacements[id(fn)] = tracer.wrap(name, fn, OBSERVERS.get(name))
        checks = getattr(module, "ALL_CHECKS", None) if short == "verify" else None
        if checks is not None:
            module.ALL_CHECKS = tuple((check, tracer.wrap("verify." + check, fn))
                                      for check, fn in checks)
    loaded = [m for n, m in sys.modules.items()
              if m is not None and (n == package or n.startswith(package + "."))]
    for module in loaded:
        for attr, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
