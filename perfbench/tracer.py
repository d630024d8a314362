"""Span tracing of the itfmap layers, installed from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
bound in place of the original at every ``itfmap`` module attribute that
refers to it, so a function imported by name (``from itfmap.signals import
normalize_window``) is traced in the importing module too.  SciPy's
``CubicSpline`` is wrapped where ``xcorr`` binds it, to count spline builds.

Spans (name, start, end, parent, root) live in flat arrays while the run
goes on and are written out once at its end.  `Tracing.restore` puts every
original attribute back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> layer name used in metric names (metric names start with a letter)
LAYERS = {
    "cli": "cli",
    "signals": "signals",
    "pipeline": "pipeline",
    "denoise": "denoise",
    "wavelets": "wavelets",
    "xcorr": "xcorr",
    "_core": "core",
    "geometry": "geometry",
    "evaluate": "evaluate",
    "simulate": "simulate",
}


class SpanLog:
    """In-memory spans of one process; a span opened with no span open is a
    root, and every span remembers its root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.root = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[tuple[str, str]] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        """Add `n` to counter `key` under the root of the open span."""
        root = self.names[self.name[self._stack[0]]] if self._stack else ""
        self.counts[root, key] += n

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            root=np.array(self.root, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def totals(self, root_name: str) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls), summed
        over the spans under roots called `root_name`."""
        if not len(self):
            return {}
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        root = np.array(self.root, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = name[root] == self._ids.get(root_name, -1)
        out = {}
        for nid, label in enumerate(self.names):
            sel = keep & (name == nid)
            if sel.any():
                out[label] = (float(dur[sel].sum()), float(own[sel].sum()), int(sel.sum()))
        return out


def _correlate_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "cctd")
    return f"xcorr.correlate.{method}"


def layer_targets() -> dict[int, tuple[object, str]]:
    """id(original) -> (original, span name) for every traced callable."""
    out: dict[int, tuple[object, str]] = {}
    for module, layer in LAYERS.items():
        mod = importlib.import_module(f"itfmap.{module}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith(f"itfmap.{module}"):
                continue  # imported from another layer; traced under that one
            out.setdefault(id(obj), (obj, f"{layer}.{obj.__name__}"))
    spline = importlib.import_module("itfmap.xcorr").CubicSpline
    out[id(spline)] = (spline, "xcorr.CubicSpline")
    return out


class Tracing:
    """Wrappers installed over the itfmap layers until `restore` is called."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.installed: list[tuple[object, str, object]] = []
        targets = layer_targets()
        # the original, read before `filter_label` itself is wrapped
        filter_label = importlib.import_module("itfmap.denoise").filter_label

        def filter_name(args, kwargs) -> str:
            spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
            return f"denoise.apply_filter.{filter_label(spec)}"

        hooks = {
            "xcorr.correlate": (_correlate_name, None),
            "denoise.apply_filter": (filter_name, None),
            "signals.normalize_window": (None, self._count_window_bytes),
            "geometry.direction_from_tdoa": (None, self._count_gate_failed),
            "pipeline.correlate_window": (None, self._count_degenerate),
        }
        self._wrappers = {}
        for key, (obj, name) in targets.items():
            namer, post = hooks.get(name, (None, None))
            self._wrappers[key] = self._wrap(obj, name, namer, post)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "itfmap" or modname.startswith("itfmap.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    self.installed.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, name, namer, post):
        log = self.log

        def traced(*args, **kwargs):
            i = log.open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(i)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _count_window_bytes(self, args, kwargs, result) -> None:
        self.log.count("signals.window_bytes_computed", result.segments.nbytes)

    def _count_gate_failed(self, args, kwargs, result) -> None:
        if not result.valid:
            self.log.count("geometry.gate_failed")

    def _count_degenerate(self, args, kwargs, result) -> None:
        if result is None:
            self.log.count("pipeline.degenerate_windows")

    def restore(self) -> None:
        for mod, attr, val in reversed(self.installed):
            setattr(mod, attr, val)

    def __enter__(self) -> "Tracing":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
