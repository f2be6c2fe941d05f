"""O3 — batched dispatch: burst drains and the batch speedup.

Three microbenches isolate what the O3 kernel work bought:

* **burst_drain** — ``N`` pre-triggered no-callback events in the fast
  lane plus one far-future heap entry, drained by ``run()``.  The heap
  entry is the honest part: the pre-O3 loop paid a heap-front comparison
  and a clock read *per event* whenever the heap was non-empty, which is
  the steady state of every real workload (there is always a pending
  timeout).  The batched loop pays both once per batch.
* **per_event_reference** — the identical workload drained by an
  in-module reconstruction of the pre-O3 per-event loop (kept below).  ``batch_speedup`` is the ratio of the two and must stay above
  the registered floor: it gates the batching win itself, not the
  machine.
* **relight_chain** — O2's callback-chained immediate events, re-run
  here through the same batched loop: a drain that runs user code per
  event.

Short mode (``repro bench run --short``) shrinks op counts ~8x for CI
smoke runs.  Event counts (including ``batched_events``) regenerate
bit-identically; wall clocks and throughputs are host-dependent.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from time import perf_counter

from repro.metrics import Table
from repro.sim import Simulator
from repro.sim.events import Event

from _common import (
    SHORT,
    MetricSpec,
    emit,
    register_bench,
    timed_rows,
    write_bench_summary,
)

SCALE = 8 if SHORT else 1
N_DRAIN = 400_000 // SCALE
N_CHAIN = 200_000 // SCALE
REPEATS = 3 if SHORT else 5

#: Far-future pending timeout: keeps the heap non-empty through the
#: drain so the per-event reference pays its heap-front check honestly.
FAR_FUTURE = 1e9


@contextmanager
def _gc_quiet():
    """Collect, then hold the collector off for the timed region.

    The drains free hundreds of thousands of event objects inside the
    measured window; when this bench runs after the rest of the suite,
    the inherited tracked-object population otherwise triggers gen-2
    collections mid-drain and the number measures suite position, not
    the loop.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _loaded_burst(n: int) -> Simulator:
    """A simulator holding ``n`` triggered lane events + one heap entry."""
    sim = Simulator()
    sim.timeout(FAR_FUTURE)
    for _ in range(n):
        Event(sim).succeed(None)
    return sim


def _batched_drain(n: int) -> float:
    """Drain the burst through ``run()`` (the batched loop)."""
    sim = _loaded_burst(n)
    with _gc_quiet():
        started = perf_counter()
        sim.run(until=0.5)
        elapsed = perf_counter() - started
    assert sim.events_processed == n, sim.events_processed
    return elapsed


def _per_event_drain(n: int) -> float:
    """Drain the burst through the pre-O3 loop, reconstructed.

    This is the horizon branch ``run()`` shipped with before the
    batching change: one heap-front comparison, one ``self._now`` read
    and one meter increment per dispatched event.  Like ``run()``, it no
    longer recycles popped heap entries (the kernel's entry pool was
    deleted after E1 could not see it), so the two loops still differ
    only in batching.
    """
    sim = _loaded_burst(n)
    horizon = 0.5
    fast = sim._fast
    heap = sim._heap
    pop = heapq.heappop
    meter = sim.meter
    with _gc_quiet():
        started = perf_counter()
        _run_per_event(sim, fast, heap, pop, meter, horizon)
        elapsed = perf_counter() - started
    assert sim.events_processed == n, sim.events_processed
    return elapsed


def _run_per_event(sim, fast, heap, pop, meter, horizon):
    while True:
        if fast:
            if heap and heap[0][0] == sim._now:
                event = pop(heap)[2]
                meter.heap_hits += 1
            else:
                event = fast.popleft()
                meter.fast_lane_hits += 1
            event._run_callbacks()
        elif heap:
            when = heap[0][0]
            if when > horizon:
                break
            event = pop(heap)[2]
            sim._now = when
            meter.heap_hits += 1
            event._run_callbacks()
        else:
            break
    sim._now = horizon


def _relight_chain(n: int) -> float:
    """O2's pure_events cell: callback-chained immediate succeeds."""
    sim = Simulator()
    remaining = [n]

    def relight(_event) -> None:
        if remaining[0]:
            remaining[0] -= 1
            nxt = Event(sim)
            nxt.callbacks.append(relight)
            nxt.succeed(None)

    first = Event(sim)
    first.callbacks.append(relight)
    first.succeed(None)
    with _gc_quiet():
        started = perf_counter()
        sim.run()
        elapsed = perf_counter() - started
    assert sim.events_processed == n + 1, sim.events_processed
    return elapsed


def measure() -> dict:
    cases = {
        "burst_drain": lambda: _batched_drain(N_DRAIN),
        "per_event_reference": lambda: _per_event_drain(N_DRAIN),
        "relight_chain": lambda: _relight_chain(N_CHAIN),
    }
    return timed_rows(cases, repeats=REPEATS)


@register_bench(
    "O3",
    metrics=(
        # Cross-commit regression gate on the batched drain itself (the
        # O2 shape: fresh vs committed events/sec within 20%).
        MetricSpec("events_per_s_drain", kind="ratio", direction="higher",
                   threshold=0.20),
        # The batching win proper: batched loop vs the reconstructed
        # per-event loop on identical work, same process, same machine.
        # Machine-independent by construction, so an absolute floor.
        MetricSpec("batch_speedup", kind="min", direction="higher",
                   threshold=1.2),
    ),
    deterministic=("mode", "short_mode", "repeats", "ops",
                   "drain_events", "drain_batched_events", "chain_events"),
)
def run_o3() -> Table:
    best = measure()

    # Determinism shape: the batched drain books every lane dispatch as
    # batched, and the far-future heap entry never fires.
    probe = _loaded_burst(1024)
    probe.run(until=0.5)
    meter = probe.meter
    assert meter.batched_events == 1024, meter.batched_events
    assert meter.fast_lane_hits == 1024 and meter.heap_hits == 0

    drain_per_s = N_DRAIN / best["burst_drain"]
    reference_per_s = N_DRAIN / best["per_event_reference"]
    batch_speedup = best["per_event_reference"] / best["burst_drain"]
    chain_per_s = (N_CHAIN + 1) / best["relight_chain"]

    table = Table(
        ["workload", "loop", "ops", "wall s (min of N)", "events/s"],
        title=f"O3: batched dispatch — interleaved rounds, min of {REPEATS}"
              f"{' (short mode)' if SHORT else ''}",
        precision=3,
    )
    table.add_row("burst drain", "per-event (pre-O3)", N_DRAIN,
                  best["per_event_reference"], reference_per_s)
    table.add_row("burst drain", "batched", N_DRAIN,
                  best["burst_drain"], drain_per_s)
    table.add_row("relight chain", "batched", N_CHAIN,
                  best["relight_chain"], chain_per_s)

    # Machine-independent shape: draining no-callback events beats the
    # relight chain (which runs user code per event).
    assert drain_per_s > chain_per_s, (drain_per_s, chain_per_s)

    payload = {
        "mode": "short" if SHORT else "full",
        "short_mode": SHORT,
        "repeats": REPEATS,
        "ops": {"burst_drain": N_DRAIN, "relight_chain": N_CHAIN},
        "drain_events": N_DRAIN,
        "drain_batched_events": N_DRAIN,
        "chain_events": N_CHAIN + 1,
        "wall_s": dict(best),
        "events_per_s_drain": drain_per_s,
        "events_per_s_reference": reference_per_s,
        "batch_speedup": batch_speedup,
        "events_per_s_chain": chain_per_s,
    }
    write_bench_summary("O3", payload)
    return table


if __name__ == "__main__":
    emit(run_o3())
