"""Spans around specpot's public functions, installed from outside.

``install`` wraps every public function and public method of each specpot
module, plus the CLI's subcommand handlers, and rebinds each wrapper at
every module that holds the function under some name: ``families``
imports ``rat_interpolate`` by name, so patching ``interp`` alone would
miss every call that generation makes.  A span is (name, start, end,
parent index, error name, size); spans stay in memory until the run ends.
While ``Tracer.enabled`` is false the wrappers only pass calls through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import sympy as sp

MODULES = ("algebra", "interp", "seeds", "gauge", "families", "spectrum",
           "expressions", "document", "cli")

#: CLI handlers are private; their spans are the subcommand durations
_CLI_HANDLERS = {"_cmd_gen": "cli.main.gen", "_cmd_verify": "cli.main.verify",
                 "_cmd_spectrum": "cli.main.spectrum",
                 "_cmd_render": "cli.main.render"}
_GENERATORS = ("gen_family1", "gen_family2", "gen_family3_log",
               "gen_family3_poly", "gen_family4")


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "size")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.error, self.size = parent, None, None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def span(self, name, fn, measure=None):
        """Wrap fn so that each call records a span under ``name``.

        ``measure(result)`` is evaluated after the span has ended, so the
        size statistics it computes stay out of the timing.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            s = Span(name, time.perf_counter(),
                     stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(s)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                s.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                s.size = measure(result)
            return result

        return wrapper

    def run_op(self, kind, call):
        """Run one benchmark op under a root span."""
        return self.span("op." + kind, call)()

    def size_total(self, name):
        return sum(s.size for s in self.spans
                   if s.name == name and s.size is not None)


def _gauge_size(M):
    """(term count, E-degree) of a returned gauge M."""
    num, den = sp.fraction(sp.cancel(sp.together(M)))
    E = sp.Symbol("E")
    terms = len(sp.Add.make_args(sp.expand(num))) \
        + len(sp.Add.make_args(sp.expand(den)))
    deg = max(sp.degree(num, E), sp.degree(den, E), 0)
    return terms, int(deg)


def _text_bytes(text):
    return len(text.encode("utf-8"))


#: size statistics taken from a function's result after its span ends
_MEASURES = {"interp": _gauge_size,
             "document.PotentialDocument.dumps": _text_bytes}


def install(tracer):
    """Wrap specpot's public functions and methods at every binding site."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module("specpot." + short)
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) and not attr.startswith("_"):
                _wrap_methods(tracer, obj, "%s.%s" % (short, attr))
                continue
            if not inspect.isfunction(obj):
                continue
            if attr in _CLI_HANDLERS:
                name = _CLI_HANDLERS[attr]
            elif attr.startswith("_"):
                continue
            elif attr in _GENERATORS:
                name = "families.gen"
            else:
                name = "%s.%s" % (short, attr)
            wrappers[obj] = tracer.span(name, obj, _MEASURES.get(short))
    for modname, mod in list(sys.modules.items()):
        if modname != "specpot" and not modname.startswith("specpot."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


def _wrap_methods(tracer, cls, prefix):
    """Wrap a class's public methods, static ones included, in place."""
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = "%s.%s" % (prefix, attr)
        if isinstance(value, staticmethod):
            fn = tracer.span(name, value.__func__, _MEASURES.get(name))
            setattr(cls, attr, staticmethod(fn))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.span(name, value, _MEASURES.get(name)))


def aggregate(spans):
    """Per span name: calls, self time and total time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0})
        st["calls"] += 1
        st["total_s"] += s.end - s.start
        st["self_s"] += s.end - s.start - child[i]
    return stats
