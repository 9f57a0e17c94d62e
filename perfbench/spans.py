"""Span tracing of hasseforms from the outside.

A wrapper site is any attribute of a hasseforms module whose
``__module__`` names another hasseforms module: a function that one
layer imported from another.  Each site is rebound to a wrapper that
records a span named ``<callee layer>.<function>``, so the span covers
exactly the calls one layer makes into another.  Sites are found by
looking, not by a list, so a later change that renames or deletes a
kernel moves its time into the caller's self time instead of breaking
the benchmark.

Classes are not rebound: ``isinstance`` checks and ``except`` clauses
need the real class.  The one constructor the benchmark counts,
``WeierstrassCurve``, is measured by wrapping its ``__init__`` while the
tracer is installed.  Per-element ``FieldElement`` methods are never
wrapped; element arithmetic is measured by stand-alone probes instead.

Spans are kept in memory (flat arrays) and written out once at the end.
Self time, a span's duration minus the time its child spans cover, is
accumulated as spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "hasseforms"
LAYERS = ("gf", "poly", "curve", "forms", "search", "verify", "cli")


def _hasse_level(args, kwargs):
    return kwargs.get("level", args[1] if len(args) > 1 else "p")


class Tracer:
    """In-memory span recorder with per-name totals and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []   # [span index, ns covered by children]
        self.calls: Counter = Counter()
        self.total_ns: defaultdict = defaultdict(int)
        self.self_ns: defaultdict = defaultdict(int)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()      # spans open right now, by name
        self.op = 0

    def enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([idx, 0])
        self.open[name] += 1
        self.span_start.append(time.perf_counter_ns())

    def exit(self) -> None:
        end = time.perf_counter_ns()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.open[name] -= 1
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def abandon(self) -> None:
        """Close every open span, after an operation was interrupted."""
        while self._stack:
            self.exit()

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".", 1)[0] == layer) / 1e9

    def wrap(self, fn):
        """A span-recording stand-in for fn (generators get one span per step)."""
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        tracer = self
        tag = _hasse_level if fn.__name__ == "hasse_invariant" else None
        hook = _RESULT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if tag is None else f"{name}[{tag(args, kwargs)}]"
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{name}.raised"] += 1
                raise
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer.counts, result)
            return result
        return wrapper

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: a names header, then one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "row": ["op", "name", "parent", "start_ns", "end_ns"]}))
            fh.write("\n")
            for row in zip(self.span_op, self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)


def _census_result(counts, report):
    counts["search.witnesses"] += len(getattr(report, "realizable", ()))


def _suite_result(counts, result):
    counts["verify.cases"] += getattr(result, "cases", 0)


def _cli_result(counts, code):
    counts["cli.nonzero"] += code != 0


_RESULT_HOOKS = {
    "search.census": _census_result,
    "verify.run_suite": _suite_result,
    "cli.main": _cli_result,
}


def find_sites(modules) -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every cross-layer function binding."""
    homes = {m.__name__ for m in modules}
    sites = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", None)
            if inspect.isfunction(obj) and home in homes and home != mod.__name__:
                sites.append((mod, attr, obj))
    return sites


def install(tracer: Tracer, modules, curve_mod, errors_mod):
    """Rebind every site to a span wrapper; returns the undo function."""
    wrapped: dict[int, object] = {}
    undo = []
    for mod, attr, fn in find_sites(modules):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(fn)
        setattr(mod, attr, wrapped[id(fn)])
        undo.append((mod, attr, fn))

    cls = getattr(curve_mod, "WeierstrassCurve", None)
    if cls is not None:
        init = cls.__init__
        singular = getattr(errors_mod, "SingularModelError", ())

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            in_census = tracer.open["search.census"] > 0
            if in_census:
                tracer.counts["search.models_built"] += 1
            tracer.enter("curve.WeierstrassCurve")
            try:
                init(self, *args, **kwargs)
            except singular:
                if in_census:
                    tracer.counts["curve.models_singular"] += 1
                raise
            finally:
                tracer.exit()

        cls.__init__ = counted_init
        undo.append((cls, "__init__", init))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
