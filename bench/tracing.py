"""Spans around the public functions of each replimeta module.

The tracer wraps every public function of the modules in ``LAYERS`` and
patches each binding of it in every one of those modules, since callers look
names up in their own module: ``replimeta.cli.partial_conjunction_p`` and
``replimeta.replicability.partial_conjunction_p`` are separate names. Nothing
under ``src/`` changes; ``uninstall`` puts the original functions back.

Spans (name, start, end, parent, request) are kept in memory in flat arrays
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Callable, Iterable

LAYERS = ("statkernels", "meta", "replicability", "report", "forest", "simulation", "cli")


class SpanStore:
    """Spans of one run, one array per field; a span's index is its id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.requests: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def lookup(self, name: str) -> int:
        """The id of a span name, or -2 when no span has it."""
        return self._name_ids.get(name, -2)

    def new_request(self, label: str) -> int:
        self.requests.append(label)
        return len(self.requests) - 1

    def add(self, name: str, start: float, end: float, parent: int, request: int) -> int:
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def extend(self, rows: Iterable[list], request: int) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        offset = len(self)
        for _, name, start, end, parent, _ in rows:
            self.add(name, start, end, parent + offset if parent >= 0 else -1, request)

    def rows(self) -> Iterable[list]:
        for i in range(len(self)):
            yield [i, self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.request[i]]

    def write(self, path: str, meta: dict) -> None:
        """One JSON header line, one line per request, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            header = dict(meta, columns=["id", "name", "start", "end", "parent", "request"], spans=len(self))
            handle.write(json.dumps(header) + "\n")
            for rid, label in enumerate(self.requests):
                handle.write(json.dumps({"request": rid, "label": label}) + "\n")
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")


class Tracer:
    """Installs span-recording wrappers; ``capture`` names also keep their arguments."""

    def __init__(self, store: SpanStore, capture: Iterable[str] = ()):
        self.store = store
        self.request = -1
        self.captured: dict[str, list[tuple[Callable, inspect.BoundArguments]]] = {
            name: [] for name in capture
        }
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        store = self.store
        stack = self._stack
        capture = self.captured.get(name)
        signature = inspect.signature(fn) if capture is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if capture is not None:
                capture.append((fn, signature.bind(*args, **kwargs)))
            index = store.add(name, clock(), 0.0, stack[-1] if stack else -1, self.request)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                store.end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"replimeta.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            # cli has no __all__; its one public function is main.
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for caller in modules:
                    for name, value in list(vars(caller).items()):
                        if value is fn:
                            self._patches.append((caller, name, fn))
                            setattr(caller, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()


def summarize(store: SpanStore, first: int = 0) -> dict:
    """Calls, inclusive time and self time per span name and self time per layer.

    Covers the spans from ``first`` on. Self time is a span's duration minus
    the durations of its child spans. ``under_delta`` counts the spans that
    run inside ``delta_bound``.
    """
    last = len(store)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child = {}
    delta_id = store.lookup("replicability.delta_bound")
    inside_delta: dict[int, bool] = {}
    under_delta: dict[str, int] = {}
    for i in range(first, last):
        duration = store.end[i] - store.start[i]
        parent = store.parent[i]
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + duration
        inside_delta[i] = store.name[i] == delta_id or inside_delta.get(parent, False)
    for i in range(first, last):
        name = store.names[store.name[i]]
        duration = store.end[i] - store.start[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child.get(i, 0.0)
        if inside_delta.get(store.parent[i], False):
            under_delta[name] = under_delta.get(name, 0) + 1
    layers: dict[str, float] = {}
    for name, value in self_time.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return {"calls": calls, "total_s": total, "self_s": self_time, "layer_self_s": layers,
            "under_delta": under_delta}
