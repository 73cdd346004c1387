"""Span tracer that wraps package functions from outside the package.

Every binding of a wrapped function is patched: the defining module, each
module that imported it by name, and the class attribute for methods.
Without that, calls made inside the package would go unseen.  Spans stay
in memory as ``[name, start, end, parent, op]`` until the caller writes
them out; ``parent`` is the index of the enclosing wrapped call (-1 at the
top) and ``op`` is the benchmark operation the call belongs to.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Mapping

# hook(counts, args, result, exc) adds work counts for one finished call
Hook = Callable[[Counter, tuple, object, BaseException | None], None]


class Tracer:
    def __init__(
        self,
        package: str,
        targets: Mapping[str, Hook | None],
        clock: Callable[[], float] = time.perf_counter,
    ):
        """`targets` maps "module.function" or "module.Class.method" to a hook."""
        self.package = package
        self.targets = dict(targets)
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                stack.pop()
                span[2] = clock()
                if hook is not None:
                    hook(counts, args, result, exc)

        return traced

    def _package_modules(self) -> list:
        pre = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(pre))
        ]

    def install(self) -> None:
        """Start a fresh recording and patch every binding of every target."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        modules = self._package_modules()
        for name, hook in self.targets.items():
            layer, *path = name.split(".")
            module = importlib.import_module(f"{self.package}.{layer}")
            if len(path) == 1:
                orig = getattr(module, path[0])
                wrapped = self.wrap(name, orig, hook)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
            elif len(path) == 2:
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._undo.append((cls, path[1], raw))
                setattr(cls, path[1], new)
            else:
                raise ValueError(f"bad target name {name!r}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: its duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
