"""Spans around the intricacy package's public functions, recorded from
outside the package.

A :class:`Tracer` rebinds every public function of the package wherever a
module of the package looks it up (``experiments.subset_entropy``,
``profiles.all_subset_entropies``, ``cli.sample_sparse_system``, ...), plus
the public methods of ``SystemLaw`` and ``EntropyProfile``.  Each wrapper
records one span named after the function's defining module, e.g.
``laws.subset_entropy``.  A span's self time is its duration minus the
durations of the spans it called, so the self times of all spans add up to
the time spent inside the package.

Per-draw generator methods are deliberately not wrapped: a span per draw
would cost more than the draw.  Their work is counted by hooks instead, from
the arguments of the calls that make the draws (labelled *computed*).
"""
from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType

LAYERS = ("rng", "construction", "laws", "profiles", "coefficients",
          "experiments", "cli")
METHOD_CLASSES = ("SystemLaw", "EntropyProfile")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_construction(counts, fn, law, args, kwargs):
    spec = _bound(fn, args, kwargs)["spec"]
    configs = spec.d ** spec.M
    counts["rng.draws"] += configs * spec.N
    counts["construction.configs_drawn"] += configs
    counts["construction.support"] += law.support_size


def _count_kernel(counts, fn, result, args, kwargs):
    law = _bound(fn, args, kwargs)["law"]
    counts["laws.mask_rows"] += (1 << law.N) * law.support_size


def _count_sampled(counts, fn, result, args, kwargs):
    a = _bound(fn, args, kwargs)
    if not a["exhaustive"]:
        sizes = {int(s) for s in a["sizes"]}
        counts["rng.draws"] += a["samples_per_size"] * sum(sizes)


def _count_census(counts, fn, result, args, kwargs):
    a = _bound(fn, args, kwargs)
    if not a["exhaustive"]:
        counts["rng.draws"] += a["samples"] * math.floor(a["y"] * a["law"].N)


def _count_search(counts, fn, result, args, kwargs):
    a = _bound(fn, args, kwargs)
    counts["experiments.maximizer_search.iterations"] += (
        a["restarts"] * a["iterations"])


HOOKS = {
    "construction.sample_sparse_system": _count_construction,
    "laws.all_subset_entropies": _count_kernel,
    "laws.entropy_profile_sampled": _count_sampled,
    "experiments.threshold_census": _count_census,
    "experiments.maximizer_search": _count_search,
}


class Tracer:
    """Span recorder for one imported ``intricacy`` package.

    ``stats`` maps a span name to ``[calls, total_s, self_s]``; ``counts``
    holds the computed counters of :data:`HOOKS`.  Spans are recorded only
    while the tracer is both installed and :meth:`recording`.
    """

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        self.stats: dict[str, list] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._on = False
        self._stack: list[float] = []
        self._saved: list[tuple] = []
        prefix = package.__name__ + "."
        self._functions = [
            obj for name, obj in vars(package).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith(prefix)]
        self._functions.append(importlib.import_module(prefix + "cli").main)
        self._methods = []
        for cls_name in METHOD_CLASSES:
            cls = getattr(package, cls_name)
            for name, attr in vars(cls).items():
                if not name.startswith("_") and isinstance(
                        attr, (staticmethod, FunctionType)):
                    self._methods.append((cls, name, attr))

    @staticmethod
    def span_name(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

    def _wrap(self, fn):
        name = self.span_name(fn)
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self._stack

        def span(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if hook is not None:
                hook(self.counts, fn, result, args, kwargs)
            return result

        return span

    @contextmanager
    def installed(self):
        """Rebind every traced function and method for the duration."""
        wrappers = {id(fn): (fn, self._wrap(fn)) for fn in self._functions}
        try:
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, hit[1])
            for cls, attr, descriptor in self._methods:
                if isinstance(descriptor, staticmethod):
                    wrapped = staticmethod(self._wrap(descriptor.__func__))
                else:
                    wrapped = self._wrap(descriptor)
                self._saved.append((cls, attr, descriptor))
                setattr(cls, attr, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attr, value = self._saved.pop()
                setattr(owner, attr, value)

    @contextmanager
    def recording(self):
        """Record spans for the duration (the tracer must be installed)."""
        self._on = True
        try:
            yield
        finally:
            self._on = False
