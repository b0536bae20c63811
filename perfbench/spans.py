"""In-memory spans around calls into the tfrom modules, and their totals.

A span is ``[name, start, end, parent, request, phase]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``request`` the id of the
``serve_request`` call the span belongs to (None outside one), and
``phase`` the part of the run it was recorded in. A request span also ends
with the thread's CPU clock at its start and end.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter, thread_time

REQUEST_SPAN = "online.serve_request"


class Tracer:
    """Wraps functions at a module binding and records a span per call.

    The tfrom modules import each other's functions by name, so a function
    is wrapped at the binding its caller looks up: wrapping
    ``tfrom.metrics.provider_relevance`` does not reach the copy that
    ``tfrom.targets`` imported, which needs its own entry.

    ``request_guard()`` is entered around every request span.
    """

    def __init__(self, request_guard=contextlib.nullcontext):
        self.request_guard = request_guard
        self.spans: list[list] = []
        self.phase = None
        self._stack: list[int] = []
        self._request = None
        self._requests = 0
        self._installed: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if name != REQUEST_SPAN:
            return self._span(name, fn, args, kwargs)
        outer = self._request
        self._request = self._requests
        self._requests += 1
        record = len(self.spans)
        try:
            with self.request_guard():
                cpu = thread_time()
                try:
                    return self._span(name, fn, args, kwargs)
                finally:
                    self.spans[record] += [cpu, thread_time()]
        finally:
            self._request = outer

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._request, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def install(self, bindings, hooks=None):
        """Wrap each ``(module, attribute, span name)`` binding.

        ``hooks`` maps a span name to ``hook(result, args)``, called after
        the span ends, to count what the returned value holds.
        """
        hooks = hooks or {}
        for module, attr, name in bindings:
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, hooks.get(name)))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name, hook):
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def requests_since(self, first: int) -> list[tuple[float, float, float, float]]:
        """``(start, end, cpu_start, cpu_end)`` of the request spans from
        index ``first`` on."""
        return [
            (span[1], span[2], *span[6:]) for span in self.spans[first:] if span[0] == REQUEST_SPAN
        ]

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def totals(spans) -> dict:
    """``{(phase, name): [seconds, self seconds, calls]}``.

    A span's self time is its duration minus that of its direct children;
    spans of one thread never overlap, so the children's durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = defaultdict(lambda: [0.0, 0.0, 0])
    for index, (name, start, end, _, _, phase, *_) in enumerate(spans):
        row = out[phase, name]
        row[0] += end - start
        row[1] += end - start - covered[index]
        row[2] += 1
    return out


def top_level_seconds(spans, phase) -> float:
    """Time covered by the top-level spans of one phase."""
    return sum(
        end - start for _, start, end, parent, _, p, *_ in spans if parent < 0 and p == phase
    )
