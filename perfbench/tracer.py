"""Outside-in call tracer for the oconf layers.

`Tracer.install()` wraps every public function and every method of every
public class defined in each layer module, plus `DiffOp.__matmul__`, and then
rebinds every copy of a wrapped function that an `oconf.*` namespace holds:
`from .x import y` names, and the entries of module-level lists, tuples and
dicts such as `suite.ALL_CHECKS` and `cli.COMMANDS`.  Properties are
attributes, not calls, and are left alone.

Each call becomes a span (name, start, end, parent) kept in flat arrays and
written out by `write_spans` when the run ends.  Per-name call counts and self
times (a span's duration minus the part covered by its child spans) are
accumulated as the calls return.  A few boundaries also record counts: rows
fed to `rank_of_rows`, `build_irrep` cache hits and misses, and the size and
identity of each computed action matrix.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("linalg", "poly", "ortho", "weights", "irreps", "mixed",
          "spectral", "reducibility", "suite", "cli")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ix: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.counts: Counter = Counter()
        self.action_keys: Counter = Counter()
        self._stack: List[list] = []  # [span index, time covered by children]
        self._originals: Dict[int, Callable] = {}
        self._wrapped: Dict[int, Callable] = {}

    # -- spans -----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return ix

    def _span(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        name_of, parent = self.name_of, self.parent
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            frame = [idx, 0.0]
            parent.append(stack[-1][0] if stack else -1)
            name_of.append(nid)
            ends.append(0.0)
            stack.append(frame)
            t0 = perf()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # -- counters at selected boundaries ------------------------------------------

    def _wrap_rank(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def rank_of_rows(rows, *args, **kwargs):
            rows = list(rows)
            counts["linalg.rank.rows_in"] += len(rows)
            return fn(rows, *args, **kwargs)

        return rank_of_rows

    def _wrap_build(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def build_irrep(*args, **kwargs):
            misses = fn.cache_info().misses
            V = fn(*args, **kwargs)
            if fn.cache_info().misses > misses:
                counts["irreps.build.dim_built"] += V.dim
            return V

        build_irrep.cache_info = fn.cache_info
        build_irrep.cache_clear = fn.cache_clear
        return build_irrep

    def _wrap_action(self, fn: Callable) -> Callable:
        counts, keys = self.counts, self.action_keys

        @functools.wraps(fn)
        def action_matrix(mod, label, k):
            cached = (label, k) in mod._act  # the module's own memo of computed matrices
            M = fn(mod, label, k)
            if not cached:
                counts["mixed.action.computed"] += 1
                counts["mixed.action.nnz_out"] += len(M.data)
                keys[(mod.series, str(mod.mu), mod.b, label, k)] += 1
            return M

        return action_matrix

    # -- installation --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        inner = fn
        if name == "linalg.rank_of_rows":
            inner = self._wrap_rank(fn)
        elif name == "irreps.build_irrep":
            inner = self._wrap_build(fn)
        elif name == "mixed.ConformalModule.action_matrix":
            inner = self._wrap_action(fn)
        w = self._span(name, inner)
        self._originals[id(fn)] = fn
        self._wrapped[id(fn)] = w
        return w

    def _wrap_class(self, layer: str, cls: type):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (cls.__name__, attr) == ("DiffOp", "__matmul__")
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                setattr(cls, attr, self._wrap(name, raw))

    def install(self):
        modules = {layer: importlib.import_module(f"oconf.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    self._wrap(f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("oconf")] + list(modules.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in self._wrapped and self._originals[id(obj)] is obj:
                    setattr(ns, attr, self._wrapped[id(obj)])
                elif isinstance(obj, (list, dict)):
                    self._rebind_container(obj)

    def _swap(self, obj):
        if id(obj) in self._wrapped and self._originals[id(obj)] is obj:
            return self._wrapped[id(obj)]
        if isinstance(obj, tuple):
            return tuple(self._swap(x) for x in obj)
        return obj

    def _rebind_container(self, box):
        keys = box.keys() if isinstance(box, dict) else range(len(box))
        for key in list(keys):
            box[key] = self._swap(box[key])

    # -- results -------------------------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds), for names called."""
        return {n: (self.calls[i], self.self_s[i], self.total_s[i])
                for i, n in enumerate(self.names) if self.calls[i]}

    def write_spans(self, path: str):
        """Spans as four parallel arrays plus the name table, in one file."""
        doc = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
