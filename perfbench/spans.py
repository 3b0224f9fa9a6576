"""Span tracing of the cshd layers from outside the library.

``Tracer.installed()`` wraps, for the duration of a ``with`` block:

* every public function of a ``cshd`` module at each site where it is bound
  (``cshd.experiments.build_set``, ``cshd.sets.build_set``, ``cshd.build_set``
  each get their own wrapper, so calls through any import site are seen);
* the public methods, ``__call__`` and ``__post_init__`` of the public
  classes defined in ``cshd`` (classes are patched where they are defined,
  because wrapping the class object would break ``isinstance``);
* ``numpy.linalg.svd``;
* the evaluation rule, gradient, Hessian and Lipschitz callables of every
  ``RegistryFunction`` in ``cshd.registry.REGISTRY`` plus the ones the
  workload passes in ("around each objective").

A wrapped call records a span ``[layer, name, start, end, parent, size]``
while ``Tracer.spans`` is a list; otherwise it passes straight through.
``size`` is the length of a returned string (rendered reports).  Layers are
the ``cshd`` module names; ``svd`` is its own layer so that the SVD time can
be separated from the rest of ``linalg``.  Nothing under ``src`` is edited.
"""

from __future__ import annotations

import contextlib
import enum
import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "report", "analysis", "calculus", "linalg", "sets", "registry")
SVD = "svd"
SVD_NAME = "numpy.linalg.svd"
FN_NAME = "registry.fn"
BOUND_NAME = "analysis.error_bound"
RENDER_NAMES = frozenset(
    {"report.ExperimentReport.render", "report.ExperimentReport.to_csv",
     "report.ExperimentReport.to_markdown"}
)
_REGISTRY_FIELDS = {"fn": FN_NAME, "gradient": "registry.gradient",
                    "hessian": "registry.hessian", "lipschitz_d3": "registry.lipschitz_d3"}
_TRACED_DUNDERS = ("__call__", "__post_init__")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, tail = module.partition(".")
    return tail if head == "cshd" and tail in LAYERS else None


class Tracer:
    """Installs the wrappers and folds recorded spans into per-layer totals."""

    def __init__(self):
        self.spans: list | None = None
        self.parent = -1
        self.self_s = defaultdict(float)     # layer -> self time
        self.calls = defaultdict(int)        # layer -> wrapped calls
        self.outer_s = defaultdict(float)    # layer -> time of spans not nested in the same layer
        self.name_calls = defaultdict(int)   # span name -> calls
        self.name_s = defaultdict(float)     # span name -> inclusive time
        self.render_s = 0.0
        self.render_chars = 0

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            if spans is None:
                return fn(*args, **kwargs)
            parent = tracer.parent
            span = [layer, name, 0.0, 0.0, parent, 0]
            tracer.parent = len(spans)
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer.parent = parent
            if type(out) is str:
                span[5] = len(out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, functions=()):
        """Wrap the library for the duration of the block, then restore it."""
        import numpy.linalg

        import cshd
        from cshd import registry

        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        modules = [cshd] + [importlib.import_module(f"cshd.{m}") for m in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if isinstance(value, types.FunctionType):
                    patch(mod, attr, self._wrap(value, layer, f"{layer}.{value.__qualname__}"))
                elif (isinstance(value, type) and value.__module__ == mod.__name__
                      and not issubclass(value, (enum.Enum, BaseException))):
                    self._patch_methods(value, layer, patch)
        patch(numpy.linalg, "svd", self._wrap(numpy.linalg.svd, SVD, SVD_NAME))
        targets = {id(f): f for f in [*registry.REGISTRY.values(), *functions]}
        for func in targets.values():
            for fld, name in _REGISTRY_FIELDS.items():
                value = getattr(func, fld)
                if value is not None:
                    undo.append((func, fld, value))
                    object.__setattr__(func, fld, self._wrap(value, "registry", name))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if isinstance(owner, (type, types.ModuleType)):
                    setattr(owner, attr, value)
                else:
                    object.__setattr__(owner, attr, value)

    def _patch_methods(self, cls, layer, patch):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                patch(cls, attr, self._wrap(value, layer, name))
            elif isinstance(value, staticmethod):
                patch(cls, attr, staticmethod(self._wrap(value.__func__, layer, name)))

    def run(self, call):
        """Run ``call()`` with recording on; return (result, wall seconds).

        The spans are folded into the totals after the wall clock stops.
        """
        self.spans, self.parent = [], -1
        t0 = perf_counter()
        try:
            out = call()
        finally:
            wall = perf_counter() - t0
            spans, self.spans = self.spans, None
            self._fold(spans)
        return out, wall

    def _fold(self, spans):
        child = [0.0] * len(spans)
        for layer, name, t0, t1, parent, size in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer, name, t0, t1, parent, size) in enumerate(spans):
            dur = t1 - t0
            self.self_s[layer] += dur - child[i]
            self.calls[layer] += 1
            self.name_calls[name] += 1
            self.name_s[name] += dur
            if parent < 0 or spans[parent][0] != layer:
                self.outer_s[layer] += dur
                if name in RENDER_NAMES:
                    self.render_s += dur
                    self.render_chars += size

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())
