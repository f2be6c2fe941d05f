"""Trace exporters: Chrome trace-event JSON and its loader.

The Chrome trace-event format (one ``traceEvents`` array of ``"X"``
complete-duration and ``"i"`` instant events) loads directly into
Perfetto or ``chrome://tracing``.  The exporter here adds two top-level
side channels the format permits:

* ``metadata`` — schema version, plus whatever the caller supplies
  (seed, app, CLI arguments);
* ``metrics`` — the labeled registry's stable snapshot.

Byte-identical output is part of the contract: events are ordered by
``(start, span_id)``, all keys are emitted through ``json.dumps`` with
``sort_keys=True``, and timestamps are the simulated clock (seconds →
microseconds), never the wall clock.  Two same-seed runs therefore
produce files that compare equal with ``cmp``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.tracer import Span, Tracer

#: Format version of the exported file (bump on structural change).
CHROME_TRACE_SCHEMA = 1

#: Synthetic process id; everything runs in the one simulated world.
_PID = 1


def _lane_of(span: Span, parents: Dict[int, Span]) -> int:
    """The root ancestor's span id: one Perfetto row per top-level span."""
    current = span
    while current.parent_id is not None:
        parent = parents.get(current.parent_id)
        if parent is None:  # pragma: no cover - defensive
            break
        current = parent
    return current.span_id


def to_chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render a tracer's spans as a Chrome trace-event document."""
    parents = {span.span_id: span for span in tracer.spans}
    events: List[Dict[str, Any]] = []
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
        lane = _lane_of(span, parents)
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attributes)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "misc",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": _PID,
                "tid": lane,
                "args": args,
            }
        )
        for at, name, attributes in span.events:
            events.append(
                {
                    "name": name,
                    "cat": span.category or "misc",
                    "ph": "i",
                    "ts": at * 1e6,
                    "s": "t",
                    "pid": _PID,
                    "tid": lane,
                    "args": dict(attributes, span_id=span.span_id),
                }
            )
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}, trace_schema=CHROME_TRACE_SCHEMA),
        "metrics": tracer.metrics.snapshot(),
    }
    return document


def dumps_chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> str:
    """The trace document as canonical JSON text (byte-stable)."""
    return json.dumps(
        to_chrome_trace(tracer, metadata),
        sort_keys=True,
        separators=(",", ":"),
    ) + "\n"


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the trace document to ``path`` atomically; returns the path."""
    from repro.sweep.spec import write_atomic

    target = Path(path)
    write_atomic(target, dumps_chrome_trace(tracer, metadata))
    return target


def load_chrome_trace(
    path: Union[str, Path],
) -> tuple[List[Span], Dict[str, Any], Dict[str, Any]]:
    """Reconstruct ``(spans, metadata, metrics)`` from an exported file.

    Only what the report needs round-trips: span identity, nesting,
    category, times, attributes and instant events.  Lane assignment is
    recomputed, not read back.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace-event file")
    spans: Dict[int, Span] = {}
    instants: List[Dict[str, Any]] = []
    for event in document["traceEvents"]:
        if event.get("ph") == "X":
            args = dict(event.get("args", {}))
            span_id = int(args.pop("span_id"))
            parent_id = args.pop("parent_id", None)
            span = Span(
                span_id=span_id,
                name=event["name"],
                category="" if event.get("cat") == "misc" else event["cat"],
                start=event["ts"] / 1e6,
                parent_id=int(parent_id) if parent_id is not None else None,
            )
            span.end = (event["ts"] + event.get("dur", 0.0)) / 1e6
            span.attributes = args
            spans[span_id] = span
        elif event.get("ph") == "i":
            instants.append(event)
    for event in instants:
        args = dict(event.get("args", {}))
        span_id = int(args.pop("span_id", 0))
        owner = spans.get(span_id)
        if owner is not None:
            owner.events.append((event["ts"] / 1e6, event["name"], args))
    ordered = sorted(spans.values(), key=lambda s: s.span_id)
    return ordered, document.get("metadata", {}), document.get("metrics", {})


__all__ = [
    "CHROME_TRACE_SCHEMA",
    "dumps_chrome_trace",
    "load_chrome_trace",
    "to_chrome_trace",
    "write_chrome_trace",
]
