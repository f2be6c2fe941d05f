"""Span-based tracing on the simulated clock.

A :class:`Span` is one named interval of simulated time — a job's whole
lifetime, one upload, one cold start — with attributes, nested children
(via ``parent``), and instant events.  A :class:`Tracer` records spans
against a clock (anything with a ``now`` attribute, normally the
:class:`~repro.sim.kernel.Simulator`) and owns a
:class:`~repro.telemetry.registry.LabeledMetricsRegistry` that every
ended span feeds, so phase timings are queryable as labeled summaries
without re-walking the span list.  A tracer built with ``record=False``
keeps neither: it tracks only the open spans and hands every span and
instant to its listeners, for a world whose only reader is a monitor.

Determinism is a hard contract: span ids are sequential, attributes keep
insertion order, and nothing here reads a wall clock or draws
randomness — two same-seed runs record byte-identical traces.

The **disabled fast path** is :class:`NullTracer` (singleton
:data:`NULL_TRACER`), which every :class:`~repro.sim.kernel.Simulator`
carries by default.  Instrumented sites hoist the ``enabled`` flag::

    tracer = sim.tracer
    if tracer.enabled:
        span = tracer.start_span("upload", category=PHASE_UPLOAD)

so a run without telemetry pays one attribute read per instrumented
operation and nothing per kernel event (verified by ``bench_o1``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.registry import LabeledMetricsRegistry

#: Canonical phase categories, in the order a job experiences them.
PHASE_JOB = "job"
PHASE_PLAN = "plan"
PHASE_SCHEDULE = "schedule"
PHASE_UPLOAD = "upload"
PHASE_QUEUE = "queue"
PHASE_COLD_START = "cold_start"
PHASE_EXECUTE = "execute"
PHASE_RETRY = "retry"
PHASE_DOWNLOAD = "download"
PHASE_STAGE = "stage"
PHASE_TRANSFER = "transfer"
PHASE_FAULT = "fault"
PHASE_COMPONENT = "component"

#: Every category a tracer may emit (exporters validate against this).
ALL_CATEGORIES = (
    PHASE_JOB,
    PHASE_PLAN,
    PHASE_SCHEDULE,
    PHASE_UPLOAD,
    PHASE_QUEUE,
    PHASE_COLD_START,
    PHASE_EXECUTE,
    PHASE_RETRY,
    PHASE_DOWNLOAD,
    PHASE_STAGE,
    PHASE_TRANSFER,
    PHASE_FAULT,
    PHASE_COMPONENT,
)


class Span:
    """One named interval of simulated time.

    ``end`` is ``None`` while the span is open.  ``events`` holds
    ``(time, name, attributes)`` instants recorded inside the span.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "ancestors",
        "name",
        "category",
        "start",
        "end",
        "attributes",
        "events",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start: float,
        parent_id: Optional[int] = None,
        ancestors: Tuple[int, ...] = (),
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        #: Ids of every enclosing span, outermost first, as the tracer
        #: that opened this one knew them: an open span's ancestry
        #: outlives its ancestors' records without holding them.
        self.ancestors = ancestors
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    @property
    def duration(self) -> float:
        """Seconds the span covered (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        """True once the span has been ended."""
        return self.end is not None

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.start:.3f}..{self.end:.3f}" if self.closed else "open"
        return f"<Span #{self.span_id} {self.category}:{self.name} {state}>"


class _NullSpan:
    """The do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    ancestors = ()
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    closed = True
    attributes: Dict[str, Any] = {}
    events: List[Tuple[float, str, Dict[str, Any]]] = []

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is a class attribute so the hot-path guard is a plain
    attribute load.  All methods accept the recording tracer's full
    signatures, so instrumentation never needs an isinstance check.
    """

    __slots__ = ()
    enabled = False

    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span: Any, **attributes: Any) -> None:
        return None

    def end_subtree(self, root: Any, **attributes: Any) -> None:
        return None

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> None:
        return None

    def subscribe(self, listener: Any) -> None:
        raise RuntimeError(
            "cannot subscribe to the disabled tracer; attach a recording "
            "Tracer (attach_tracer) before attaching listeners"
        )

    @property
    def spans(self) -> List[Span]:
        return []

    @property
    def metrics(self) -> LabeledMetricsRegistry:
        # A fresh empty registry: callers may snapshot it, but nothing
        # instrumented ever writes through the null tracer.
        return LabeledMetricsRegistry()

    def __repr__(self) -> str:
        return "NULL_TRACER"


_NULL_SPAN = _NullSpan()

#: Shared disabled tracer; the default on every Simulator.
NULL_TRACER = NullTracer()


class _Dropped:
    """The labeled registry of a tracer that records nothing, and every
    series it hands out: each write is dropped."""

    __slots__ = ()

    def counter(self, name: str, **labels: Any) -> "_Dropped":
        return self

    def summary(self, name: str, **labels: Any) -> "_Dropped":
        return self

    def increment(self, amount: float = 1.0) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


_DROPPED = _Dropped()


class Tracer:
    """Records spans against a simulated clock.

    Parameters
    ----------
    clock:
        Any object with a float ``now`` attribute — normally the
        :class:`~repro.sim.kernel.Simulator` the traced world runs on.
    record:
        ``False`` keeps no closed span and drops every labeled-metric
        write (``metrics`` takes and discards them): the tracer then
        serves only its listeners, which see every span end and instant
        exactly as with a recording tracer.  A monitored fleet group's
        tracer is built this way, because nothing reads its record.
    """

    __slots__ = (
        "clock", "_spans", "_open", "_next_id", "metrics", "_listeners"
    )

    enabled = True

    def __init__(self, clock: Any, record: bool = True) -> None:
        self.clock = clock
        self._spans: Optional[List[Span]] = [] if record else None
        #: Open spans by id, in creation order.
        self._open: Dict[int, Span] = {}
        self._next_id = 1
        self.metrics: Any = LabeledMetricsRegistry() if record else _DROPPED
        self._listeners: List[Any] = []

    # -- listeners ---------------------------------------------------------

    def subscribe(self, listener: Any) -> None:
        """Register a listener for finished spans and instant events.

        A listener implements ``on_span_end(span)`` (called when a span
        closes via :meth:`end_span` or arrives pre-closed via
        :meth:`record_span`) and ``on_instant(at, name, attributes,
        parent)`` (called for every :meth:`instant`; ``parent`` is the
        owning span or ``None``).  Listeners are notified in subscription
        order, synchronously, on the simulated clock — they must never
        mutate the span or schedule simulator events from the callback,
        or determinism (and golden fixtures) break.
        """
        self._listeners.append(listener)

    # -- recording ---------------------------------------------------------

    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span at the current simulated time."""
        if parent is None:
            span = Span(self._next_id, name, category, self.clock.now)
        else:
            span = Span(
                self._next_id,
                name,
                category,
                self.clock.now,
                parent.span_id,
                (*parent.ancestors, parent.span_id),
            )
        self._next_id += 1
        if attributes:
            span.attributes.update(attributes)
        self._open[span.span_id] = span
        if self._spans is not None:
            self._spans.append(span)
        return span

    def end_span(self, span: Span, **attributes: Any) -> None:
        """Close ``span`` at the current simulated time.

        Ending an already-closed span (or the null span) is a no-op, so
        error paths may end defensively.
        """
        if span.closed or span.span_id == 0:
            return
        span.end = self.clock.now
        self._open.pop(span.span_id, None)
        if attributes:
            span.attributes.update(attributes)
        if span.category:
            self.metrics.summary(
                "span_seconds", category=span.category
            ).observe(span.duration)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_end(span)

    def end_subtree(self, root: Span, **attributes: Any) -> None:
        """End ``root`` and every still-open descendant at the current time.

        The error path of a traced operation: when a job dies mid-flight,
        whatever spans its subprocesses had open (a component, a transfer,
        a queue wait) are closed here with the failure's attributes, so no
        span leaks open and exporters see a complete trace.
        """
        root_id = root.span_id
        if root_id == 0:
            return
        # Only open spans are candidates; each knows its ancestors, closed
        # ones included.  Deepest-first (reverse creation order) so
        # children close before their parents.
        for span in [
            s for s in reversed(self._open.values()) if root_id in s.ancestors
        ]:
            self.end_span(span, **attributes)
        self.end_span(root, **attributes)

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Record a span with explicit times (fault windows, backfills)."""
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=start,
            parent_id=(parent.span_id if parent is not None else None),
            ancestors=(
                (*parent.ancestors, parent.span_id)
                if parent is not None else ()
            ),
        )
        self._next_id += 1
        span.end = end
        if attributes:
            span.attributes.update(attributes)
        if self._spans is not None:
            self._spans.append(span)
        if category:
            self.metrics.summary("span_seconds", category=category).observe(
                end - start
            )
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_end(span)
        return span

    def instant(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> None:
        """Record an instant event, attached to ``parent`` when given."""
        target = parent if parent is not None and parent.span_id != 0 else None
        record = (self.clock.now, name, dict(attributes))
        if target is not None:
            target.events.append(record)
        else:
            # Parentless instants live on a synthetic zero-length span so
            # exporters need only one representation.
            span = Span(self._next_id, name, "", record[0])
            self._next_id += 1
            span.end = span.start
            span.events.append(record)
            if self._spans is not None:
                self._spans.append(span)
        for listener in self._listeners:
            listener.on_instant(record[0], name, record[2], target)

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All recorded spans, in creation order (none unless recording)."""
        return list(self._spans or ())

    def open_spans(self) -> List[Span]:
        """Spans not yet ended (useful for leak assertions in tests)."""
        return list(self._open.values())

    def spans_by_category(self, category: str) -> List[Span]:
        """Recorded spans of one category, in creation order."""
        return [s for s in self._spans or () if s.category == category]

    def __len__(self) -> int:
        return len(self._spans or ())


def attach_tracer(env: Any, tracer: Optional[Tracer] = None) -> Tracer:
    """Install a (new) tracer on an environment's simulator.

    The tracer rides on ``env.sim.tracer``, where every instrumented
    subsystem (controller, platform, links, fault injector) looks for
    it.  Attach before planning/execution so plan spans are captured.
    """
    if tracer is None:
        tracer = Tracer(env.sim)
    env.sim.tracer = tracer
    return tracer


__all__ = [
    "ALL_CATEGORIES",
    "NULL_TRACER",
    "NullTracer",
    "PHASE_COLD_START",
    "PHASE_COMPONENT",
    "PHASE_DOWNLOAD",
    "PHASE_EXECUTE",
    "PHASE_FAULT",
    "PHASE_JOB",
    "PHASE_PLAN",
    "PHASE_QUEUE",
    "PHASE_RETRY",
    "PHASE_SCHEDULE",
    "PHASE_STAGE",
    "PHASE_TRANSFER",
    "PHASE_UPLOAD",
    "Span",
    "Tracer",
    "attach_tracer",
]
