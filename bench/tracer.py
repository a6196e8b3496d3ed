"""Outside-in tracer: spans around calls into a package's public API.

``Tracer.install`` replaces every public function, and every public method
(plus ``__init__``) of every public class, defined in the given modules with a
wrapper that records a span.  Functions are rebound in every module namespace
that binds them, because modules import names from each other directly and a
call through such a name would otherwise go untraced.  ``uninstall`` restores
the originals, so timed runs execute the untouched program.

A span is (name id, start, end, parent span, op id).  Spans live in typed
arrays in memory; ``write`` saves them once the run ends.  A span's self time
is its duration minus the durations of its direct children: on one thread,
children nest inside the parent and do not overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

ROOT = -1


class Tracer:
    """Traces the public API defined in ``modules``.

    ``namespaces`` are the modules whose bindings of those functions are
    rebound, the defining modules included.  ``counters`` map a span name to
    fn(arguments by parameter name) yielding (count key, value); keys in
    ``maxima`` keep the largest value seen, the others a sum.
    """

    def __init__(self, modules: list[ModuleType], namespaces: list[ModuleType],
                 counters: dict[str, Callable] | None = None,
                 maxima: frozenset[str] = frozenset(),
                 clock: Callable[[], float] = time.perf_counter):
        self.modules = modules
        self.namespaces = namespaces
        self.counters = counters or {}
        self.maxima = maxima
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, float] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``."""
        nid = self._intern(name)
        counter = self.counters.get(name)
        params = list(inspect.signature(fn).parameters) if counter else []
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter({**dict(zip(params, args)), **kwargs}):
                    self._count(key, value)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else ROOT)
            self.op.append(self.current_op)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _count(self, key: str, value: float) -> None:
        old = self.counts.get(key, 0)
        self.counts[key] = max(old, value) if key in self.maxima else old + value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, Callable] = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.span(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{short}.{attr}")
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])

    def _install_class(self, cls: type, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.span(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.span(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Save spans (``.npz``) and the name table (``.names.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    return duration - child_time

