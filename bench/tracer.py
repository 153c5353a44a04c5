"""Spans around the package's functions, recorded from outside the package.

A Tracer rebinds every `algentropy.*` module attribute that is the same
object as a traced function, so calls through `from .x import f` bindings
and calls inside the defining module are both caught.  Spans stay in
memory; `uninstall` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "algentropy" or name.startswith("algentropy."))
    ]


class Tracer:
    """Records a span per call of each traced function.

    `spans` maps "module.function" (relative to `algentropy`) to an optional
    observer `f(span, args, kwargs, result)` that sets span counters.
    `hooks` maps "module.Class.method" to an observer `f(tracer, result)`
    called after each call without opening a span, for counting work inside
    a traced function without splitting its self time.
    """

    def __init__(self, spans: dict, hooks: dict | None = None):
        self._span_targets = spans
        self._hook_targets = hooks or {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.item: str | None = None

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def _span_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _hook_wrapper(self, fn, observe):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, result)
            return result

        return hooked

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for target, observe in self._span_targets.items():
                mod_name, _, fn_name = target.rpartition(".")
                original = getattr(sys.modules[f"algentropy.{mod_name}"], fn_name)
                wrapper = self._span_wrapper(target, original, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for target, observe in self._hook_targets.items():
                mod_name, cls_name, meth = target.split(".")
                owner = getattr(sys.modules[f"algentropy.{mod_name}"], cls_name)
                original = vars(owner)[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._hook_wrapper(original, observe))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    totals: dict[str, float] = {}
    for span, child in zip(spans, covered):
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds - child
    return totals
