"""In-memory spans recorded around calls into the program's public functions.

The benchmark never edits the program: :class:`Tracer` replaces a function
or method on its owning module or class with a timing wrapper, records one
span per call (name, start, end, parent, attributes) and keeps every span
in memory until the benchmark writes them out.  Parents follow
:mod:`contextvars`, so spans nest per thread and per asyncio task.  Times
come from ``time.monotonic``, which on Linux is one clock for every process
on the host, so spans from a server process line up with the load
generator's timestamps.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables in place and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfkit_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None, before=None,
             cpu: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)`` may return extra span attributes.
        ``before(args, kwargs)`` may be awaited (async targets only) before
        the clock starts, to keep idle waiting out of the span.  With
        ``cpu`` the span also records the process CPU seconds (all threads)
        spent during the call as ``attrs["cpu"]``.
        """
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(target):

            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                if before is not None:
                    await before(args, kwargs)
                entered = tracer._enter(cpu)
                result = None
                try:
                    result = await target(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(entered, name, attrs, args, kwargs, result)
        else:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                entered = tracer._enter(cpu)
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(entered, name, attrs, args, kwargs, result)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _enter(self, cpu: bool):
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        cpu_start = time.process_time() if cpu else None
        return token, span_id, parent, cpu_start, time.monotonic()

    def _exit(self, entered, name, attrs, args, kwargs, result):
        end = time.monotonic()
        token, span_id, parent, cpu_start, start = entered
        self._current.reset(token)
        extra = {}
        if cpu_start is not None:
            extra["cpu"] = time.process_time() - cpu_start
        if attrs is not None:
            try:
                extra.update(attrs(args, kwargs, result))
            except Exception as exc:  # attribute extraction must never break the call
                extra["attrs_error"] = repr(exc)
        self.spans.append(Span(span_id, name, start, end, parent, extra))

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def load_spans(records) -> list[Span]:
    return [Span(**record) for record in records]


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        result[span.id] = span.duration - covered(inside)
    return result


def layer_table(spans) -> list[tuple[str, int, float, float]]:
    """``(name, calls, total_s, self_s)`` per span name, by self time."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own[span.id]
    return sorted(
        ((name, calls, total, own_s) for name, (calls, total, own_s) in rows.items()),
        key=lambda row: -row[3],
    )


def root_of(spans) -> dict[int, Span]:
    """Each span's outermost ancestor (itself when it has no parent)."""
    by_id = {span.id: span for span in spans}
    roots = {}
    for span in spans:
        node = span
        while node.parent is not None and node.parent in by_id:
            node = by_id[node.parent]
        roots[span.id] = node
    return roots
