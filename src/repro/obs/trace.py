"""Structured tracing: nested spans over two clocks.

The repo's claims are *cost* claims — energy per sample, simulated chip
latency, ADC conversions — executed by a stack of four layers (runtime
plan → shard streams → scheduler → server).  A :class:`Tracer` records
that execution as **spans**: named, nested, thread-attributed intervals
carrying both clocks:

* **wall time** — ``time.perf_counter()``, what the host spent;
* **simulated chip time** — the monotone ``MacroStats.latency_ns``
  accumulated by the run the span instruments (machine-independent,
  the clock the paper's figures are drawn in).

Spans also carry free-form attributes (``energy_fj``, ``macs``,
``tenant``, ``batch`` …) so an exporter can attribute cost to
requests, plan nodes, and shard stages.

Tracing is **off by default** and the off state is the hot path: every
instrumented site guards with ``trace.current()`` — a module-global
read returning ``None`` — so a disabled tracer costs one attribute
load and a ``None`` check per guarded region
(``benchmarks/test_bench_obs.py`` pins the serving overhead < 3%).
Enable it for a region with::

    from repro.obs import trace

    with trace.tracing() as tracer:
        compiled.run(batch)
    trace.export_chrome(tracer, "out.json")   # via repro.obs.chrome

or process-wide with :func:`install` / :func:`uninstall`.

Thread-safety: finished spans append to the tracer under a lock, and
span nesting uses a per-thread stack, so concurrent server workers and
shard threads trace into one tracer without coordination.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class SpanRecord:
    """One finished span.

    ``t0`` / ``t1`` are ``time.perf_counter()`` seconds.  ``attrs`` may
    carry the simulated-chip clock: ``chip_ns`` (duration) on leaf
    compute spans — the Chrome exporter builds the synthetic chip-time
    track from exactly those — plus whatever the instrumented site
    attributed (``energy_fj``, ``macs``, ``tenant`` …).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    thread_id: int
    thread_name: str
    t0: float
    t1: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def chip_ns(self) -> float:
        return float(self.attrs.get("chip_ns", 0.0))


class Span:
    """Context manager for one in-flight span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self._record = record

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute."""
        self._record.attrs[key] = value
        return self

    @property
    def attrs(self) -> Dict[str, Any]:
        return self._record.attrs

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self._record)


class Tracer:
    """Thread-safe collector of :class:`SpanRecord`.

    ``max_spans`` bounds memory: once full, further spans are counted
    in :attr:`dropped` instead of stored (the exporters note the drop).
    """

    def __init__(self, max_spans: int = 200_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._ids = itertools.count()
        self._stacks = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, category: str = "", **attrs: Any) -> Span:
        """Open a nested span; close it by exiting the ``with`` block."""
        stack = self._stack()
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else None,
            name=name,
            category=category,
            thread_id=threading.get_ident(),
            thread_name=threading.current_thread().name,
            t0=time.perf_counter(),
            t1=0.0,
            attrs=attrs,
        )
        stack.append(record.span_id)
        return Span(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == record.span_id:
            stack.pop()
        self._append(record)

    def record(
        self,
        name: str,
        t0: float,
        t1: float,
        category: str = "",
        thread_name: Optional[str] = None,
        **attrs: Any,
    ) -> SpanRecord:
        """Record a span retroactively, with explicit perf-counter times.

        Used for intervals only known after the fact — a request's time
        in the scheduler queue, a batch's coalescing window.  The span
        is parentless and attributed to the calling thread unless
        ``thread_name`` overrides the display name.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=None,
            name=name,
            category=category,
            thread_id=threading.get_ident(),
            thread_name=(
                thread_name
                if thread_name is not None
                else threading.current_thread().name
            ),
            t0=t0,
            t1=t1,
            attrs=attrs,
        )
        self._append(record)
        return record

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(record)

    # -- reading -------------------------------------------------------
    def spans(self) -> List[SpanRecord]:
        """Finished spans, in completion order (a consistent copy)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


#: The process-wide tracer; ``None`` means tracing is disabled.  Hot
#: paths read this through :func:`current` exactly once per region.
_TRACER: Optional[Tracer] = None

#: Reusable no-op context manager standing in for a span when tracing
#: is off: ``with NULL_SPAN if tracer is None else tracer.span(...) as sp``
#: binds ``sp`` to ``None``.
NULL_SPAN = contextlib.nullcontext(None)


def current() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled.

    This is the one guard every instrumented site evaluates; keep calls
    to it out of inner loops (resolve once per run / batch / request).
    """
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Enable process-wide tracing; returns the active tracer."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active, if any."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope-local tracing: install on entry, restore the previous
    tracer (usually ``None``) on exit."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    try:
        yield _TRACER
    finally:
        _TRACER = previous


def maybe_span(name: str, category: str = "", **attrs: Any):
    """A span when tracing is enabled, else a shared no-op context.

    The cold-path convenience guard::

        with trace.maybe_span("snapshot_load", "snapshot", key=key) as sp:
            ...
            if sp is not None:
                sp.set("bytes", n)
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **attrs)
