"""Spans around calls into lagspec's public functions, recorded from outside
the program by rebinding each name at the site it is imported into, and the
per-layer figures derived from them.
"""
from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = float("nan")
    error: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory.

    A span's parent is the innermost open span of its own thread.  A thread
    with no open span (a sweep pool worker) takes the innermost open span of
    the thread that created the tracer, which is the active ``strobo.sweep``.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        main_stack = self._stacks.get(self._main, [])
        parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
        with self._lock:
            self.spans.append(Span(name, self.clock(), parent, tid))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stacks[threading.get_ident()].pop()


Describe = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """A dotted name to wrap, the span it records, and an optional function
    of (args, kwargs, result) giving attributes to attach to the span."""

    dotted: str
    span: str
    describe: Describe | None = None


def resolve(dotted: str):
    """(module, attribute) of a dotted name, or None if either is gone."""
    module_name, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr


def missing_targets(targets) -> list[str]:
    return [t.dotted for t in targets if resolve(t.dotted) is None]


def install(tracer: Tracer, targets) -> None:
    """Rebind every target to a traced wrapper.  Fails before wrapping
    anything if a target no longer exists, so a renamed function never
    drops its span silently."""
    missing = missing_targets(targets)
    if missing:
        raise LookupError(f"traced names no longer exist: {', '.join(missing)}")
    for target in targets:
        module, attr = resolve(target.dotted)
        setattr(module, attr, _traced(tracer, getattr(module, attr), target))


def _traced(tracer: Tracer, fn, target: Target):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.spans[index].error = True
            raise
        finally:
            tracer.close(index)
        if target.describe is not None:
            tracer.spans[index].attrs.update(target.describe(args, kwargs, result))
        return result

    return traced


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Children of a sweep overlap in the pool threads,
    so a plain sum of their durations would overcount."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(i, [])
            if b > s["start"] and a < s["end"]
        ]
        out.append((s["end"] - s["start"]) - union_length(clipped))
    return out


def descendants_threads(spans: list[dict], root: int) -> set[int]:
    """Threads that ran any span below span ``root``."""
    below, threads = {root}, set()
    for i, s in enumerate(spans):  # parents precede children in the list
        if s["parent"] in below:
            below.add(i)
            threads.add(s["thread"])
    return threads


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy (sum of durations), self time, errors and
    the summed numeric attributes."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(
            s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
        )
        agg["calls"] += 1
        agg["busy_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[i]
        agg["errors"] += int(s["error"])
        for key, value in s["attrs"].items():
            agg[key] = agg.get(key, 0) + value
    return out


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative seconds of the outermost ``scipy`` imports in the output of
    ``python -X importtime``.  The output lists each module after the ones it
    imports, indented two spaces per nesting level."""
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        body = name[1:]  # one separator space, then two per nesting level
        depth = (len(body) - len(body.lstrip(" "))) // 2
        entries.append((depth, body.strip(), int(cumulative)))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    for depth, module, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6
