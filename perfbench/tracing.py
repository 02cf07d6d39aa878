"""Span tracing of `quasilocal` from outside the package.

`Tracer.install` replaces every public function of the traced modules, at
every module attribute that holds it, with a timing wrapper, so a call
through `negativity.chsh` is timed as `model.chsh` just like a call through
`model.chsh`.  `uninstall` puts the originals back.

A span is (id, parent id, item id, name, start ns, end ns).  Spans stay in
memory and are written out by `write_spans`.  Functions in AGGREGATE_ONLY
run thousands of times per item, so they are counted and timed without
spans.  Self time is a call's duration minus the durations of the traced
calls made inside it; the per-item root span's self time is the benchmark's
own code between calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from contextlib import contextmanager

TRACED_MODULES = ("fileio", "model", "solver", "negativity", "quantum", "cli")
AGGREGATE_ONLY = frozenset({"quantum.born_probability"})
ROOT = "bench.item"
#: Spans are kept for this many items; counts and times cover every item.
SPAN_ITEMS = 200


class Tracer:
    def __init__(self, package):
        """`package` is the imported `quasilocal` package."""
        self.package = package
        self.stats: dict[str, list[int]] = {}   # name -> [calls, self ns]
        self.spans: list[tuple] = []
        self.names: list[str] = []             # function names present in the package
        self.root_ns = 0                       # summed duration of the item spans
        self._stack: list[list[int]] = []      # [child ns, span id] per open call
        self._next_id = 0
        self._item = -1
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package.__name__}.{name}")
                   for name in TRACED_MODULES}
        owners = {m.__name__: short for short, m in modules.items()}
        wrappers = {}
        for module in (self.package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in owners):
                    continue
                if value not in wrappers:
                    name = f"{owners[value.__module__]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                    self.names.append(name)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        keep_spans = name not in AGGREGATE_ONLY
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_spans and 0 <= tracer._item < SPAN_ITEMS:
                    spans.append((span_id, parent, tracer._item, name, t0, t1))

        return wrapper

    # -- items --------------------------------------------------------------

    @contextmanager
    def item(self, item_id: int):
        """Root span around one benchmark item."""
        self._item = item_id
        stats = self.stats.setdefault(ROOT, [0, 0])
        span_id = self._next_id
        self._next_id += 1
        frame = [0, span_id]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            stats[0] += 1
            stats[1] += (t1 - t0) - frame[0]
            self.root_ns += t1 - t0
            if item_id < SPAN_ITEMS:
                self.spans.append((span_id, -1, item_id, ROOT, t0, t1))
            self._item = -1

    # -- results ------------------------------------------------------------

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0])[0]

    def layer_self_ns(self, layer: str) -> int:
        return sum(s[1] for n, s in self.stats.items() if n.split(".", 1)[0] == layer)

    def write_spans(self, path) -> None:
        """Spans as gzip'd JSON lines, then one line of per-function totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(
                    ("id", "parent", "item", "name", "start_ns", "end_ns"), span))) + "\n")
            out.write(json.dumps({"totals": {n: {"calls": c, "self_ns": s}
                                             for n, (c, s) in sorted(self.stats.items())}}) + "\n")
