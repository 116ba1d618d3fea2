"""Benchmark-side tracing: spans around calls into the program's layers.

The program's own telemetry stays off; a traced run instead wraps public
methods on the instances a workload builds (and ``Tensor.backward`` on its
class), records one span per call with its parent, and derives each
layer's self time as the span minus its children. Spans stay in memory.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: tolerance for the span-containment and tiling checks, in seconds
_SLACK_S = 1e-6


def patch(owner, attr: str, make: Callable) -> Callable[[], None]:
    """Replace ``owner.attr`` with ``make(original)``; returns the undo.

    On an instance the replacement is an instance attribute shadowing the
    class method, so other instances of the class are untouched.
    """
    original = getattr(owner, attr)
    had_own = isinstance(owner, type) or attr in vars(owner)
    setattr(owner, attr, make(original))
    if had_own:
        return lambda: setattr(owner, attr, original)
    return lambda: delattr(owner, attr)


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int        # index into the recorder's spans, -1 for a root
    segment: int       # the timed segment the span ran in


class SpanRecorder:
    """Collects spans and per-layer counts from wrapped methods."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.segment = -1
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str,
             count: Optional[Tuple[str, Callable[..., int]]] = None,
             relabel: Optional[Callable[[], Callable[[], str]]] = None
             ) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``.

        ``count=(name, fn)`` adds ``fn(*args)`` to count ``name`` per call.
        ``relabel()`` runs before the call and returns a function that
        names the span once the call has finished (e.g. by whether the
        call changed some public counter).
        """
        def make(original):
            def wrapper(*args, **kwargs):
                label = relabel() if relabel is not None else None
                index = self._open(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(index)
                    if label is not None:
                        self.spans[index].layer = label()
                    if count is not None:
                        self.counts[count[0]] += int(count[1](*args, **kwargs))
            return wrapper

        self._undo.append(patch(owner, attr, make))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def root(self, layer: str, segment: int) -> Iterator[None]:
        """The root span of one timed segment."""
        self.segment = segment
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, 0.0, 0.0, parent, self.segment))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index].end = end
        self._stack.pop()


def self_times(spans: List[Span], root_layer: str) -> Tuple[List[float],
                                                            List[str]]:
    """Self time of every span, and any violations of the span tree.

    A well-formed tree has exactly one root per segment, named after the
    workload, and every child inside its parent; then the self times of a
    segment's spans add up to its root's duration.
    """
    selves = [span.end - span.start for span in spans]
    problems: List[str] = []
    for index, span in enumerate(spans):
        if span.parent < 0:
            if span.layer != root_layer:
                problems.append(f"span {span.layer} ran outside an operation")
            continue
        parent = spans[span.parent]
        if span.start < parent.start - _SLACK_S or \
                span.end > parent.end + _SLACK_S:
            problems.append(f"span {span.layer} escapes its parent "
                            f"{parent.layer}")
        selves[span.parent] -= span.end - span.start
    for index, value in enumerate(selves):
        if value < -_SLACK_S:
            problems.append(f"span {spans[index].layer} has negative self "
                            f"time {value:.3g} s")
    return selves, problems
