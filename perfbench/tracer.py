"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces every public function of the program's modules,
in every module namespace that holds a reference to it, with a wrapper that
records a span: name, start, end and parent. Spans live in flat arrays
while the run goes on and are written out by `Tracer.write` at the end.
Self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from pathlib import Path

LAYERS = ("graph", "cotree", "coloring", "hc_algorithms", "generator",
          "oracle", "cli")

# A generator helper called once per vertex in inner loops: its span would
# time only the creation of the iterator and would dominate the run.
SKIP = {"graph.bits"}


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.stack: list[list] = []   # [span index, time of child spans]
        self.render_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, classify=None):
        """Wrap fn; a generator function is drained inside its span, so
        the span covers the work and not only the iterator's creation."""
        nid = self._id(name)
        perf = time.perf_counter
        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                end = perf()
                self.stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
                if self.stack:
                    self.stack[-1][1] += end - start
            label = classify(result) if classify else name
            if label != name:
                self.span_name[index] = self._id(label)
            self.self_time[label] = (self.self_time.get(label, 0.0)
                                     + end - start - frame[1])
            self.calls[label] = self.calls.get(label, 0) + 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, key: str, new) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap each public function in every namespace that refers to it."""
        cotree = self.modules["cotree"]
        hca = self.modules["hc_algorithms"]
        oracle = self.modules["oracle"]
        spaces = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for attr, fn in vars(module).copy().items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                classify = None
                if name == "cotree.build_cotree":
                    def classify(result, witness=cotree.P4Witness):
                        return ("cotree.build_cotree_reject"
                                if isinstance(result, witness)
                                else "cotree.build_cotree")
                wrapped = self._span(name, fn, classify)
                for space in spaces:
                    for key, value in vars(space).copy().items():
                        if value is fn:
                            self._patch(space, key, wrapped)
        render = hca.CountReport.render

        def measured_render(report):
            text = render(report)
            self.render_bytes += len(text)
            return text

        self._patch(hca.CountReport, "render",
                    self._span("hc_algorithms.render", measured_render))
        self._patch(cotree.Cotree, "postorder",
                    self._count("cotree.postorder", cotree.Cotree.postorder))
        # The theorem checks are private and dispatched through this table.
        for tid, fn in list(oracle._CHECKS.items()):
            self._patch(oracle._CHECKS, tid, self._span(f"oracle.{tid}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- results --------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines: id, name, parent id,
        start, end (seconds on the `time.perf_counter` clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t"
                          f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\n")
