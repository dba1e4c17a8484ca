"""Spans around the calls into each piezobeam layer, recorded from outside.

`Tracer.install` replaces every public function of the layer modules by a
timing wrapper in each module namespace that holds it, which is where the
importing module looks the name up (`piezobeam.spectral.build_system`,
`piezobeam.cli.spectrum`, `piezobeam.simulate.discrete_energy`, ...), and
`uninstall` puts the originals back.  Nothing inside the package changes.

In `cli` only `run` is wrapped: the `cmd_*` subcommand bodies are what the
benchmark counts as `cli.run` self time (parsing plus CSV/JSON/manifest
output).

A span opened on a thread with no open span of its own (the sweep's pool
threads) takes the innermost open span of the thread that installed the
tracer as its parent, because the executor does not carry context.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("materials", "design", "orfd", "simulate", "spectral", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []  # (module, attribute, original)

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            tail = (stack or self._main_stack)[-1:]  # a slice: atomic under the GIL
            parent = tail[0] if tail else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"piezobeam.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (layer != "cli" or attr == "run")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per span name: call count, summed duration `s`, and `self_s`, the
    duration minus the part of each span's interval its children cover."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span_id, _, name, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())
                   if e > start and s < end]
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _covered(clipped)
    return dict(out)
