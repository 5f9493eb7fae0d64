"""In-process span tracing of the ilalg package, from outside the package.

`Tracer.install()` replaces every public function in every `ilalg.*` module
namespace that binds it with a recording wrapper, so a call is seen whether
it goes through its home module or through a re-import (for example
`quotient.assemble_algebra`, or `cli.is_filter`). `ReportDocument.render`
is wrapped as well. Each call records a span: name, start, end, parent span
and invocation id. Self time and call counts are derived from the spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Counters read off a call's arguments and result: span name -> extractor.
_COUNTERS = {
    "quotient.quotient_algebra": lambda args, r: {"quotient.blocks": len(r.blocks)},
    "filters.enumerate_filters": lambda args, r: {"filters.count": len(r)},
    "report.render": lambda args, r: {"report.lines": len(args[0].lines),
                                      "report.bytes": len(r.encode("utf-8"))},
    **{f"core.{name}": (lambda args, r: {"core.violations": len(r.violations)})
       for name in ("check_lattice", "check_monoid", "check_residuation",
                    "check_identities")},
}


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    invocation: int
    counts: dict | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.invocation = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(args, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public ilalg function in every namespace binding it."""
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "ilalg" and not modname.startswith("ilalg."):
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("ilalg.")):
                    continue
                if id(value) not in wrappers:
                    name = value.__module__.removeprefix("ilalg.") + "." + value.__name__
                    wrappers[id(value)] = self._wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        report = sys.modules["ilalg.report"]
        render = report.ReportDocument.render
        self._restore.append((report.ReportDocument, "render", render))
        report.ReportDocument.render = self._wrap("report.render", render)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span], scale: dict[int, float] | None = None) -> dict:
    """Per-name self ms and call counts, summed counters, the is_filter
    calls made directly by enumeration, and the root (cli.main) time.

    `scale` maps an invocation id to a factor applied to its times.
    """
    scale = scale or {}
    own = [t * scale.get(s.invocation, 1.0) for s, t in zip(spans, self_times(spans))]
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    enum_is_filter = 0
    for s, t in zip(spans, own):
        ms[s.name] += t / 1e6
        calls[s.name] += 1
        for k, v in (s.counts or {}).items():
            counts[k] += v
        if (s.name == "filters.is_filter" and s.parent >= 0
                and spans[s.parent].name == "filters.enumerate_filters"):
            enum_is_filter += 1
    root_ms = sum((s.end - s.start) * scale.get(s.invocation, 1.0)
                  for s in spans if s.parent < 0) / 1e6
    return {"ms": dict(ms), "calls": dict(calls), "counts": dict(counts),
            "enum_is_filter": enum_is_filter, "root_ms": root_ms}
