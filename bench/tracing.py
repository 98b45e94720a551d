"""Spans and counters around leibcoh's layers, from outside the package.

Nothing under `src/` knows about this module.  `Tracer` rebinds each
layer's public callables to timing wrappers: module-level functions are
rebound in every leibcoh namespace that holds them (`cli` imports
`kernel` by name, for example), and a short list of class entry points
is rebound on the class.  Per-element value types (`Scalar`, `Poly`,
`Echelon` rows) get no spans: their cost is charged to the calling
layer, and the separate `Counter` pass counts them instead, because
counting every scalar slows a run by about a fifth.

A span is (name, layer, start, end, parent, request).  Spans stay in
memory until `write` saves them once, at the end of a run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from functools import partial, wraps

LAYERS = ("scalars", "linalg", "polynomials", "algebras", "cochains",
          "koszul", "deformations", "families", "formats", "cli")

# Class entry points that do a layer's work; other methods are either
# per-element helpers called in inner loops or trivial accessors.
CLASS_SPANS = {
    "linalg": {"Matrix": ("from_columns", "columns", "transpose", "matvec"),
               "Subspace": ("__init__", "contains", "contains_subspace",
                            "reduce", "insert", "basis"),
               "Solver": ("__init__", "solve")},
    "algebras": {"AlgebraSpec": ("__init__",)},
    "cochains": {"CochainScheme": ("__init__", "delta_matrix",
                                   "delta_apply"),
                 "ClassCoordinates": ("__init__", "coords")},
    "deformations": {"ObstructionContext": ("__init__",),
                     "Deformation": ("defect_series",)},
    "families": {"ParamAlgebra": ("__init__",)},
}


def _modules():
    return {layer: importlib.import_module(f"leibcoh.{layer}")
            for layer in LAYERS}


def _namespaces():
    return [importlib.import_module("leibcoh"), *_modules().values()]


def public_functions(module):
    """Module-level functions a layer exports, defined in that layer."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [(name, getattr(module, name)) for name in names
            if inspect.isfunction(getattr(module, name))
            and getattr(module, name).__module__ == module.__name__]


class _Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function_everywhere(self, original, replacement):
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self.set(ns, attr, replacement)

    def method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self.set(cls, attr, make(raw))

    def restore(self):
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records a span around every traced call while installed."""

    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent, request]
        self._stack = []
        self.request = None
        self._patches = None

    def _wrap(self, name, layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return traced

    def __enter__(self):
        patches = _Patches()
        for layer, module in _modules().items():
            for name, fn in public_functions(module):
                patches.function_everywhere(
                    fn, self._wrap(f"{layer}.{name}", layer, fn))
            for cls_name, methods in CLASS_SPANS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    patches.method(cls, attr, partial(
                        self._wrap, f"{layer}.{cls_name}.{attr}", layer))
        self._patches = patches
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._patches = None
        return False

    def write(self, path):
        """Save every span as one JSON object per line."""
        keys = ("name", "layer", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans, first, last) -> dict:
    """Per-layer self time, and the time and count per span name, of
    spans[first:last], which must hold their own parents.

    A span's self time is its duration minus its direct children's.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name = {}
    child = [0.0] * (last - first)
    for idx in range(last - 1, first - 1, -1):
        name, layer, start, end, parent, _ = spans[idx]
        dur = end - start
        self_s[layer] += dur - child[idx - first]
        if parent >= 0:
            child[parent - first] += dur
        total, count = by_name.get(name, (0.0, 0))
        by_name[name] = (total + dur, count + 1)
    return {"self_s": self_s, "by_name": by_name}


class Counter:
    """Counts scalar constructions, echelon inserts and matrix sizes."""

    def __init__(self):
        self.scalars = 0
        self.inserts = 0
        self.rank_ups = 0
        self.matrix_nnz = 0
        self.delta_builds = 0
        self.delta_nnz = 0
        self._seen = {}
        self._patches = None

    def new_request(self):
        self._seen = {}

    def __enter__(self):
        mods = _modules()
        linalg, cochains = mods["linalg"], mods["cochains"]
        scalar_cls = mods["scalars"].Scalar
        patches = _Patches()
        counter = self

        def nnz(m):
            return sum(len(row) for row in m.rows)

        def scalar_init(fn):
            @wraps(fn)
            def counted(self, *args, **kwargs):
                counter.scalars += 1
                fn(self, *args, **kwargs)
            return counted

        def insert(fn):
            @wraps(fn)
            def counted(self, vec):
                counter.inserts += 1
                grew = fn(self, vec)
                counter.rank_ups += bool(grew)
                return grew
            return counted

        def eliminated(fn):
            @wraps(fn)
            def counted(*args):
                counter.matrix_nnz += nnz(args[-1])
                return fn(*args)
            return counted

        def delta_matrix(fn):
            @wraps(fn)
            def counted(self, n):
                m = fn(self, n)
                if id(m) not in counter._seen:
                    counter._seen[id(m)] = m
                    counter.delta_builds += 1
                    counter.delta_nnz += nnz(m)
                return m
            return counted

        patches.method(scalar_cls, "__init__", scalar_init)
        patches.method(linalg.Echelon, "insert", insert)
        patches.method(linalg.Solver, "__init__", eliminated)
        for fn in (linalg.kernel, linalg.image):
            patches.function_everywhere(fn, eliminated(fn))
        patches.method(cochains.CochainScheme, "delta_matrix", delta_matrix)
        self._patches = patches
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._patches = None
        self._seen = {}
        return False
