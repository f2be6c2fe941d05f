"""Host-time span recorder that attributes a run's wall time to layers.

The recorder times calls into each layer's public entry points from the
outside: :func:`instrument` swaps wrappers onto the simulator's classes
and modules for the length of one ``with`` block and restores the
originals on exit, so nothing under ``src/`` changes and untraced
repetitions run the program exactly as shipped.

Each wrapped call becomes a span named ``<layer>.<what>``; the layer is
the ``repro`` sub-package that owns the code (``sim``, ``core``,
``serverless`` ...).  Spans nest on one stack, so a span's *self* time
is its duration minus the part of it its child spans cover, and the self
times of all spans plus the root repetition span add up to the traced
wall time exactly.  Process bodies are timed per resumption: the
:meth:`Simulator.spawn` wrapper hands the kernel a proxy whose ``send``
and ``throw`` run the real generator inside a ``<layer>.proc`` span,
where the layer is the module that defines the generator function.

Spans live in memory; :meth:`Recorder.write_spans` writes them out once
the benchmark ends.  Pool workers of a multi-process fleet run inherit
the wrappers through ``fork`` and ship one aggregate per shard back to
the parent through a spool directory (:meth:`Recorder.absorb_spool`).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of the root span that :func:`run.py` opens around one
#: repetition; its self time is the ``other`` row of the attribution.
ROOT = "bench.rep"


class Aggregate:
    """Per-span-name totals: self seconds, inclusive seconds, call counts,
    plus plain counters and ``(pid, seconds)`` of every fleet shard run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.shard_s: List[List[float]] = []

    def absorb(self, other: "Aggregate") -> None:
        for mine, theirs in (
            (self.self_s, other.self_s),
            (self.total_s, other.total_s),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.shard_s.extend(other.shard_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "counts": self.counts,
            "shard_s": self.shard_s,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Aggregate":
        agg = Aggregate()
        agg.self_s = dict(data["self_s"])
        agg.total_s = dict(data["total_s"])
        agg.calls = dict(data["calls"])
        agg.counts = dict(data["counts"])
        agg.shard_s = list(data["shard_s"])
        return agg


class Recorder:
    """In-memory span stack for one traced repetition.

    ``local`` aggregates spans recorded in this process; ``workers``
    aggregates what pool workers shipped back.  ``spans`` holds closed
    local spans as ``(id, parent_id, name, start, end)``.
    """

    def __init__(self, spool: Path) -> None:
        self.pid = os.getpid()
        self.spool = spool
        self.workers = Aggregate()
        self._shipped = 0
        self.reset()

    def reset(self) -> None:
        """Drop local spans and totals (``workers`` is kept)."""
        self.local = Aggregate()
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[list] = []
        self._next_id = 1

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        A call directly nested in a span of the same name (a partitioner
        delegating to another, say) is folded into its parent, so counts
        stay one per outermost call.
        """
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [0.0, name, span_id]
        parent_id = stack[-1][2] if stack else 0
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            local = self.local
            local.self_s[name] = local.self_s.get(name, 0.0) + duration - frame[0]
            local.total_s[name] = local.total_s.get(name, 0.0) + duration
            local.calls[name] = local.calls.get(name, 0) + 1
            self.spans.append((span_id, parent_id, name, start, end))

    def count(self, key: str, n: int = 1) -> None:
        counts = self.local.counts
        counts[key] = counts.get(key, 0) + n

    def nested_calls(self, name: str, ancestor_prefix: str) -> int:
        """Closed spans called ``name`` with an ancestor whose name starts
        with ``ancestor_prefix`` (e.g. plans made inside remediation)."""
        parents = {span[0]: (span[1], span[2]) for span in self.spans}
        found = 0
        for span_id, parent_id, span_name, _, _ in self.spans:
            if span_name != name:
                continue
            while parent_id:
                parent_id, parent_name = parents.get(parent_id, (0, ""))
                if parent_name.startswith(ancestor_prefix):
                    found += 1
                    break
        return found

    # -- pool workers ------------------------------------------------------

    def ship_worker_shard(self) -> None:
        """Write this shard's aggregate where the parent will find it."""
        self.local.counts["remediate.replans"] = self.nested_calls(
            "core.plan", "remediate."
        )
        self.spool.mkdir(parents=True, exist_ok=True)
        self._shipped += 1
        path = self.spool / f"{os.getpid()}-{self._shipped}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.local.to_dict()))
        tmp.replace(path)

    def absorb_spool(self) -> int:
        """Fold every shipped worker aggregate in; returns how many."""
        if not self.spool.is_dir():
            return 0
        shipped = sorted(self.spool.glob("*.json"))
        for path in shipped:
            self.workers.absorb(Aggregate.from_dict(json.loads(path.read_text())))
            path.unlink()
        return len(shipped)

    # -- results -----------------------------------------------------------

    def combined(self) -> Aggregate:
        """Local plus worker totals (what the per-layer metrics report)."""
        out = Aggregate()
        out.absorb(self.local)
        out.absorb(self.workers)
        out.counts["remediate.replans"] = out.counts.get(
            "remediate.replans", 0
        ) + self.nested_calls("core.plan", "remediate.")
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Local self time per layer; see :func:`by_layer`.  Sums to the
        root span's duration."""
        return by_layer(self.local.self_s)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent_id, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


class _Body:
    """Generator proxy: every resumption runs inside a ``<layer>.proc``
    span.  ``__name__`` is copied so ``Process.name`` keeps its default."""

    __slots__ = ("_generator", "_span", "_recorder", "__name__")

    def __init__(self, generator: Any, span: str, recorder: Recorder) -> None:
        self._generator = generator
        self._span = span
        self._recorder = recorder
        self.__name__ = generator.__name__

    def send(self, value: Any) -> Any:
        return self._recorder.call(self._span, self._generator.send, (value,), {})

    def throw(self, exc: BaseException) -> Any:
        return self._recorder.call(self._span, self._generator.throw, (exc,), {})

    def close(self) -> None:
        self._generator.close()


def by_layer(self_s: Dict[str, float]) -> Dict[str, float]:
    """Fold span self times into rows: process bodies stay apart as
    ``<layer>.proc``, every other span joins its layer, and the root
    repetition span becomes ``other``."""
    rows: Dict[str, float] = {}
    for name, seconds in self_s.items():
        if name == ROOT:
            row = "other"
        elif name.endswith(".proc"):
            row = name
        else:
            row = name.split(".", 1)[0]
        rows[row] = rows.get(row, 0.0) + seconds
    return rows


def layer_of(module: str) -> str:
    """``repro.core.controller`` -> ``core``; anything else -> ``other``."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"


def _targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every timed entry point."""
    from repro.core import partitioning
    from repro.core.allocation import MemoryAllocator
    from repro.core.controller import OffloadController
    from repro.fleet import sharded
    from repro.monitor.monitor import Monitor
    from repro.monitor.slo import SLOEngine
    from repro.remediate.engine import RemediationEngine
    from repro.sweep.runner import SweepRunner
    from repro.telemetry.tracer import Tracer

    targets = [
        (OffloadController, "plan", "core.plan"),
        (OffloadController, "estimate_completion", "core.estimate"),
        (MemoryAllocator, "allocate_app", "core.allocate"),
        (Monitor, "on_span_end", "monitor.fold"),
        (Monitor, "on_instant", "monitor.instant"),
        (SLOEngine, "evaluate", "monitor.slo_eval"),
        (RemediationEngine, "poll", "remediate.poll"),
        (RemediationEngine, "on_alert_fired", "remediate.alert"),
        (RemediationEngine, "on_alert_cleared", "remediate.alert"),
        (Tracer, "start_span", "telemetry.start"),
        (Tracer, "end_span", "telemetry.end"),
        (Tracer, "record_span", "telemetry.record"),
        (Tracer, "instant", "telemetry.instant"),
        (SweepRunner, "run", "fleet.fanout"),
        (sharded, "merge_group_records", "fleet.merge"),
        (sharded, "merge_snapshots", "fleet.merge_snapshots"),
        (sharded, "build_fleet_health", "fleet.health"),
    ]
    pending = [partitioning.Partitioner]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "partition" in vars(cls) and not getattr(
            vars(cls)["partition"], "__isabstractmethod__", False
        ):
            targets.append((cls, "partition", "core.partition"))
    return targets


def _timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def _counted(recorder: Recorder, key: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(key)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the block; originals return on exit."""
    from repro.fleet import sharded
    from repro.network.link import NetworkPath
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.kernel import Simulator

    saved: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Callable) -> None:
        saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    for owner, attribute, name in _targets():
        patch(owner, attribute, _timed(recorder, name, getattr(owner, attribute)))
    patch(ServerlessPlatform, "invoke", _counted(
        recorder, "serverless.invocations", ServerlessPlatform.invoke))
    patch(NetworkPath, "transfer", _counted(
        recorder, "network.transfers", NetworkPath.transfer))

    run = Simulator.run
    spawn = Simulator.spawn
    span_of_code: Dict[Any, str] = {}

    def traced_run(self: Simulator, until: Optional[Any] = None) -> Any:
        meter = self.meter
        before = (meter.fast_lane_hits, meter.heap_hits, meter.batched_events)
        try:
            return recorder.call("sim.run", run, (self, until), {})
        finally:
            recorder.count("sim.fast_lane", meter.fast_lane_hits - before[0])
            recorder.count("sim.heap", meter.heap_hits - before[1])
            recorder.count("sim.batched", meter.batched_events - before[2])

    def traced_spawn(self: Simulator, generator: Any, name: Optional[str] = None):
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            return spawn(self, generator, name)
        code = generator.gi_code
        span = span_of_code.get(code)
        if span is None:
            span = f"{layer_of(frame.f_globals.get('__name__', ''))}.proc"
            span_of_code[code] = span
        return spawn(self, _Body(generator, span, recorder), name)

    shard_run = sharded.shard_run

    def traced_shard_run(config: Dict[str, Any]) -> Dict[str, Any]:
        worker = os.getpid() != recorder.pid
        if worker:
            # A forked pool worker inherited the parent's open stack:
            # each shard starts from an empty recorder instead.
            recorder.reset()
        started = perf_counter()
        try:
            return recorder.call("fleet.shard", shard_run, (config,), {})
        finally:
            recorder.local.shard_s.append(
                [os.getpid(), perf_counter() - started]
            )
            if worker:
                recorder.ship_worker_shard()

    patch(Simulator, "run", traced_run)
    patch(Simulator, "spawn", traced_spawn)
    patch(sharded, "shard_run", traced_shard_run)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
