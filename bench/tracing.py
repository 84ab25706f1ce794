"""Span tracing of chaoseig's public API, installed from outside the package.

`Tracer.install` replaces every public function and method of the layer
modules with a wrapper that records one span per call: the callee's name,
its start and end on `time.perf_counter`, and the span that was open when
it began.  The modules import each other's functions by name, so a function
is replaced in every `chaoseig` module namespace that holds it, not only
where it is defined; methods are replaced on their class.  `uninstall` puts
every original back.  Nothing under `src/` is edited.

Spans live in flat arrays while the traced code runs and are reduced once
it has finished (`Tracer.spans`).  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass
class Spans:
    """All recorded spans as parallel arrays, in start order."""

    names: list          # qualified name per name id
    name: np.ndarray     # name id per span
    parent: np.ndarray   # index of the enclosing span, -1 for a root
    duration: np.ndarray
    self_time: np.ndarray

    def ids(self, qualnames):
        """Mask of the spans of the named callees."""
        wanted = set(qualnames)
        return np.isin(self.name, [i for i, q in enumerate(self.names)
                                   if q in wanted])

    def calls(self, qualnames):
        return int(np.count_nonzero(self.ids(qualnames)))

    def inclusive(self, qualnames, where=True):
        """Wall time inside any of the named callees, nested calls once.

        where masks the spans that count (by default all of them).
        """
        mine = self.ids(qualnames)
        return float(self.duration[mine & ~self._below(mine) & where].sum())

    def layer_self_time(self, layer, where=True):
        """Summed self time of one module's spans (those in where)."""
        return float(self.self_time[self.ids(
            q for q in self.names if q.startswith(layer + ".")) & where].sum())

    def root_of(self):
        """Index of each span's root span."""
        root = np.arange(len(self.parent))
        up = self.parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            root[live] = up[live]
            up[live] = self.parent[up[live]]
        return root

    def _below(self, mask):
        """True for spans that have an ancestor in `mask`."""
        covered = np.zeros(len(self.parent), dtype=bool)
        up = self.parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            covered[live] |= mask[up[live]]
            up[live] = self.parent[up[live]]
        return covered


class Tracer:
    """Records spans for the public callables of the given chaoseig modules.

    skip names callables (as "module.name" or "module.Class.method") that
    stay unwrapped; hooks maps a qualified name to fn(tracer, args, result),
    called after each traced call to read work counts off its result.
    """

    def __init__(self, modules, skip=(), hooks=None):
        self.modules = list(modules)
        self.skip = set(skip)
        self.hooks = dict(hooks or {})
        self.counters = {}
        self._names = []
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]
        self._patched = []

    def _intern(self, qualname):
        self._names.append(qualname)
        return len(self._names) - 1

    def _wrap(self, qualname, fn):
        nid = self._intern(qualname)
        hook = self.hooks.get(qualname)
        name, parent, start, end = (self._name, self._parent, self._start,
                                    self._end)
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @staticmethod
    def wrapper_cost(calls=20000, repeats=5):
        """Seconds a wrapper adds to one call, timed on a wrapped no-op.

        The median over repeats of (wrapped loop - bare loop) / calls, on a
        throwaway tracer so the probe spans stay out of the recorded ones.
        """
        def noop():
            return None

        wrapped = Tracer(())._wrap("probe.noop", noop)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    @contextlib.contextmanager
    def span(self, qualname):
        """Record one span around a block of code (a benchmark phase)."""
        nid = self._intern(qualname)
        sid = len(self._name)
        self._name.append(nid)
        self._parent.append(self._open[-1])
        self._end.append(0.0)
        self._open.append(sid)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[sid] = time.perf_counter()
            self._open.pop()

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for short in self.modules:
            mod = importlib.import_module(f"chaoseig.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                qual = f"{short}.{attr}"
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        public = meth == "__init__" or not meth.startswith("_")
                        if (inspect.isfunction(fn) and public
                                and f"{qual}.{meth}" not in self.skip):
                            self._set(obj, meth,
                                      self._wrap(f"{qual}.{meth}", fn))
                elif (inspect.isfunction(obj)
                      and obj.__module__ == mod.__name__
                      and qual not in self.skip):
                    wrappers[obj] = self._wrap(qual, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "chaoseig" and not modname.startswith("chaoseig."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def minimum(self, counter, value):
        self.counters[counter] = min(self.counters.get(counter, value), value)

    def spans(self):
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        duration = np.asarray(self._end) - np.asarray(self._start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(name))
        return Spans(list(self._names), name, parent, duration,
                     duration - children)
