"""Spans recorded from outside the program.

The tracer replaces bound methods *on instances the benchmark built*
with a wrapper that records ``[id, parent, request, name, tag, start,
end]``; nothing under ``src/`` knows it exists. Spans stay in memory and
are written once, when the run ends. A layer's self time is its span
minus the part its direct children cover. Timestamps are as measured.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SPAN_FIELDS = ("id", "parent", "request", "name", "tag", "start", "end")
_PARENT, NAME, TAG, START, END = 1, 3, 4, 5, 6


class Tracer:
    """In-memory span recorder over wrapped bound methods."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: burst or batch id the harness sets before each top-level call;
        #: every span recorded under that call carries it.
        self.request = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str]] = []

    def wrap(self, obj: object, attr: str, name: str, tag: str = "") -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        Callers inside the program that reach the method through the
        instance (``self.switch.process_burst``) pick the wrapper up; the
        class is untouched, so other instances stay untraced.
        """
        fn = getattr(obj, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.request,
                    name, tag, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in self._wrapped:
            delattr(obj, attr)  # the class attribute shows through again
        self._wrapped.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def self_times(spans: list[list], by_tag: bool = False) -> dict:
    """Per span name (or ``(name, tag)``): ``calls``, ``total_s``, ``self_s``.

    ``self_s`` subtracts from each span the durations of its *direct*
    children (grandchildren are already inside the children).
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[END] - span[START]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        duration = span[END] - span[START]
        row = out[(span[NAME], span[TAG]) if by_tag else span[NAME]]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span[0], 0.0)
    return dict(out)
