"""In-memory span tracing of symflow's public functions, applied from outside.

The tracer wraps every public module-level function of the measured
modules and rebinds each wrapper wherever the original is bound: in every
``symflow`` module namespace (``from .matrix_core import eig_sym`` makes
``symflow.poisson.eig_sym`` a second binding) and in module-level dicts
such as ``symflow.cli.COMMANDS``.  No file of the package changes.

A span is ``[name, start, end, parent index, request id]``.  Spans live in
memory for one request; :meth:`Tracer.fold` adds them to per-name totals
and clears them, so memory stays bounded however long the run.  Self time
is a span's duration minus the part its child spans cover; execution is
single-threaded, so child spans are disjoint and that part is their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self, module_names):
        self.module_names = list(module_names)
        self.spans = []
        self.request = -1
        self._stack = []
        self._patches = []  # (namespace dict, key, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Rebind every public function of the measured modules to a wrapper."""
        wrappers = {}  # id(original) -> (original, wrapper); keeps originals alive
        for module_name in self.module_names:
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module_name
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        package = self.module_names[0].split(".", 1)[0]
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                targets = [(namespace, key, value)]
                if isinstance(value, dict):
                    targets = [(value, k, v) for k, v in value.items()]
                for target, k, v in targets:
                    hit = wrappers.get(id(v))
                    if hit is not None:
                        self._patches.append((target, k, v))
                        target[k] = hit[1]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            target[key] = original
        self._patches.clear()

    def fold(self, totals: dict) -> None:
        """Add this request's spans to ``totals[name] = [calls, self_s]`` and clear them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered[index]
        spans.clear()

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with an ``ancestor`` span above them, this request."""
        spans = self.spans
        below = [False] * len(spans)
        count = 0
        for index, (span_name, _, _, parent, _) in enumerate(spans):
            below[index] = parent >= 0 and (below[parent] or spans[parent][0] == ancestor)
            if below[index] and span_name == name:
                count += 1
        return count
