"""The span-based tracer: nested wall/CPU-timed spans with attributes.

One process owns one :class:`Tracer` (the module singleton behind
:func:`trace`).  Instrumented code writes::

    with trace("batch.evaluate", scenarios=len(scenarios)) as span:
        ...
        span.set("mode", "sparse")

and pays **nothing** when tracing is off: :func:`trace` checks a single
attribute (``Tracer.enabled``) and returns a shared no-op span, so the hot
paths stay hot.  When enabled (``COBRA_TRACE=1`` or
:func:`enable_tracing`), every ``with trace(...)`` block records a
:class:`Span` — wall time via :func:`time.perf_counter`, optional CPU time
via :func:`time.process_time` — nested under the innermost open span of the
current thread.  Completed root spans collect on :attr:`Tracer.roots`
(bounded, oldest dropped) until drained by the CLI, a benchmark, or a
worker-shard capture.

Spans serialise to plain dicts (:meth:`Span.to_dict` /
:meth:`Span.from_dict`), which is how process-pool workers ship their
subtrees back to the parent (:meth:`Tracer.attach`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from types import TracebackType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

#: Upper bound on retained completed root spans; a long-lived service with
#: tracing left on must not leak memory just because nobody drains the roots.
MAX_ROOT_SPANS = 512

#: Environment switches: ``COBRA_TRACE=1`` enables tracing at import,
#: ``COBRA_TRACE_CPU=1`` additionally samples CPU time per span.
TRACE_ENV = "COBRA_TRACE"
TRACE_CPU_ENV = "COBRA_TRACE_CPU"


class Span:
    """One timed, attributed node of a trace tree.

    Spans double as context managers: entering starts the clock and pushes
    the span on the owning tracer's stack, exiting stops the clock and files
    the span under its parent (or the tracer's roots).
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_time",
        "duration",
        "cpu_time",
        "_tracer",
        "_cpu_start",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = attributes or {}
        self.children: List["Span"] = []
        self.start_time: float = 0.0
        self.duration: float = 0.0
        self.cpu_time: Optional[float] = None
        self._tracer = tracer
        self._cpu_start: Optional[float] = None

    # -- attribute surface ---------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach/overwrite one attribute (chainable)."""
        self.attributes[key] = value
        return self

    def update(self, attributes: Mapping[str, Any]) -> "Span":
        """Attach several attributes at once (chainable)."""
        self.attributes.update(attributes)
        return self

    def add(self, counts: Mapping[str, int]) -> "Span":
        """Add ``counts`` onto numeric attributes, absent ones counting 0
        (chainable): a span sums what each call under it reports."""
        attributes = self.attributes
        for key, value in counts.items():
            attributes[key] = attributes.get(key, 0) + value
        return self

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start_time = time.perf_counter()
        if tracer is not None and tracer.cpu:
            self._cpu_start = time.process_time()
        if tracer is not None:
            tracer._push(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> bool:
        self.duration = time.perf_counter() - self.start_time
        if self._cpu_start is not None:
            self.cpu_time = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            tracer._pop(self)
        return False

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation of the subtree."""
        record: Dict[str, Any] = {
            "name": self.name,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }
        if self.cpu_time is not None:
            record["cpu_time"] = self.cpu_time
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        span = cls(str(data.get("name", "?")), dict(data.get("attributes", {})))
        span.duration = float(data.get("duration", 0.0))
        if "cpu_time" in data:
            span.cpu_time = float(data["cpu_time"])
        span.children = [cls.from_dict(child) for child in data.get("children", ())]
        return span

    def walk(self) -> Iterator["Span"]:
        """Yield the span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """The shared span returned by :func:`trace` when tracing is off.

    Every method is a no-op returning ``self``; the object is a singleton so
    a disabled ``trace(...)`` call allocates nothing.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def update(self, attributes: Mapping[str, Any]) -> "_NoopSpan":
        return self

    def add(self, counts: Mapping[str, int]) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> bool:
        return False


#: The singleton no-op span (public: identity-comparable in tests).
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Per-process tracer state: the enable flag, span stacks, and roots.

    The span stack is thread-local (a span opened on a worker thread nests
    under that thread's spans, or becomes a root of its own), while
    :attr:`roots` is shared and bounded.
    """

    def __init__(self, enabled: bool = False, cpu: bool = False) -> None:
        self.enabled = enabled
        self.cpu = cpu
        self.roots: "deque[Span]" = deque(maxlen=MAX_ROOT_SPANS)
        self._local = threading.local()

    # -- stack plumbing ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover — unbalanced exit safety net
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- public surface ------------------------------------------------------

    def span(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> Span:
        """A new span bound to this tracer (use as a context manager)."""
        return Span(name, attributes, tracer=self)

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread (``None`` outside)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def attach(
        self, subtrees: Sequence[Mapping[str, Any]], **extra: Any
    ) -> List[Span]:
        """Graft serialised span subtrees under the current span (or roots).

        This is the parent side of cross-process aggregation: worker shards
        export their span trees as dicts, the parent re-hydrates them here.
        ``extra`` attributes (e.g. ``shard=3``) are stamped on each grafted
        root.
        """
        grafted = []
        parent = self.current()
        for data in subtrees:
            span = Span.from_dict(data)
            if extra:
                span.attributes.update(extra)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
            grafted.append(span)
        return grafted

    def drain(self) -> List[Span]:
        """Remove and return all completed root spans (oldest first)."""
        roots = list(self.roots)
        self.roots.clear()
        return roots

    def reset(self) -> None:
        """Drop all recorded roots and the calling thread's open stack."""
        self.roots.clear()
        self._local = threading.local()

    def __repr__(self) -> str:
        return (
            f"Tracer(enabled={self.enabled}, roots={len(self.roots)}, "
            f"open={len(self._stack())})"
        )


#: The process-wide tracer singleton behind :func:`trace`.
_TRACER = Tracer(
    enabled=os.environ.get(TRACE_ENV, "") not in ("", "0"),
    cpu=os.environ.get(TRACE_CPU_ENV, "") not in ("", "0"),
)


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def trace(name: str, **attributes: Any) -> Union[Span, _NoopSpan]:
    """Open a traced span (the one instrumentation entry point).

    Returns a live :class:`Span` context manager when tracing is enabled and
    the shared no-op singleton otherwise — the disabled cost is one
    attribute lookup plus the call itself, so instrumented hot paths run at
    full speed by default.
    """
    tracer = _TRACER
    if not tracer.enabled:
        return NOOP_SPAN
    return Span(name, attributes, tracer=tracer)


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _TRACER.enabled


def enable_tracing(cpu: Optional[bool] = None) -> Tracer:
    """Turn span recording on (optionally with per-span CPU time)."""
    if cpu is not None:
        _TRACER.cpu = cpu
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> Tracer:
    """Turn span recording off (recorded roots are kept until drained)."""
    _TRACER.enabled = False
    return _TRACER


def current_span() -> Union[Span, _NoopSpan]:
    """The innermost open span, or the no-op span when tracing is off.

    Lets instrumentation annotate whatever span is live without opening a
    new one (``current_span().set("mode", "sparse")``).
    """
    if not _TRACER.enabled:
        return NOOP_SPAN
    span = _TRACER.current()
    return span if span is not None else NOOP_SPAN
