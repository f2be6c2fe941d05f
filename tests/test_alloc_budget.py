"""Allocation budget: the kernel hot path must stay allocation-lean.

The fast-lane kernel work (pooled heap entries, slotted dispatch
records, no per-spawn bootstrap ``Event`` or per-interrupt lambda)
bounds the *marginal* allocations of one more offloaded job.  This test
pins that budget with :mod:`tracemalloc` so an innocent-looking change —
a closure in ``timeout``, a dict-backed event, a per-transfer list — is
caught as the multi-kilobyte-per-job regression it is rather than as
slow drift.

Measured at the time of writing: ~3.3 KiB marginal peak per job on the
``offload_run`` scenario.  The budget is ~2.4x that, loose enough for
interpreter/platform variation, tight enough that reverting any of the
hot-path structures blows through it.
"""

import tracemalloc

from repro.sweep.scenarios import offload_run

PER_JOB_BUDGET_BYTES = 8_192
BASE_PEAK_BUDGET_BYTES = 512 * 1024  # the 10-job run, everything included

JOBS_SMALL = 10
JOBS_LARGE = 40


def _peak_bytes(jobs: int) -> int:
    config = {"jobs": jobs}
    offload_run(config)  # warm imports, caches, and code objects
    tracemalloc.start()
    try:
        offload_run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_marginal_allocations_per_job_within_budget():
    small = _peak_bytes(JOBS_SMALL)
    large = _peak_bytes(JOBS_LARGE)
    per_job = (large - small) / (JOBS_LARGE - JOBS_SMALL)
    assert per_job <= PER_JOB_BUDGET_BYTES, (
        f"marginal peak is {per_job:.0f} B/job "
        f"(budget {PER_JOB_BUDGET_BYTES} B) — a kernel hot-path "
        f"structure is allocating per job again"
    )
    assert small <= BASE_PEAK_BUDGET_BYTES, (
        f"base {JOBS_SMALL}-job peak is {small} B "
        f"(budget {BASE_PEAK_BUDGET_BYTES} B)"
    )


def test_pure_event_loop_allocations_bounded():
    """The event fast lane itself: O(1) traced peak regardless of count.

    Steady-state succeed-dispatch traffic recycles everything it touches
    (one pending event alive at a time), so the traced peak must not
    scale with the number of events processed.
    """
    from repro.sim import Simulator
    from repro.sim.events import Event

    def run(n: int) -> int:
        sim = Simulator()
        remaining = [n]

        def relight(_event: Event) -> None:
            if remaining[0]:
                remaining[0] -= 1
                nxt = Event(sim)
                nxt.callbacks.append(relight)
                nxt.succeed(None)

        first = Event(sim)
        first.callbacks.append(relight)
        first.succeed(None)
        tracemalloc.start()
        try:
            sim.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.events_processed == n + 1
        return peak

    run(100)  # warm-up
    small, large = run(1_000), run(10_000)
    # 10x the events must not cost anywhere near 10x the peak.
    assert large <= 2 * small + 16_384, (small, large)


def test_traced_event_loop_transient_allocations_bounded():
    """A traced event loop's peak memory is the trace plus a constant.

    With a recording tracer attached, each loop iteration emits an
    instant into an open span.  The records themselves are retained
    (they are the trace), so what must stay O(1) is the transient
    overhead above the retained trace: each instant is written once,
    where it happens, so ``peak`` must track ``current`` (the final
    trace) plus a constant, not grow with the number of instants.
    """
    from repro.sim import Simulator
    from repro.sim.events import Event
    from repro.telemetry.tracer import Tracer

    def run(n: int) -> int:
        sim = Simulator()
        tracer = Tracer(sim)
        sim.tracer = tracer
        job = tracer.start_span("job")
        remaining = [n]

        def relight(_event: Event) -> None:
            if remaining[0]:
                remaining[0] -= 1
                tracer.instant("tick", parent=job)
                nxt = Event(sim)
                nxt.callbacks.append(relight)
                nxt.succeed(None)

        first = Event(sim)
        first.callbacks.append(relight)
        first.succeed(None)
        tracemalloc.start()
        try:
            sim.run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracer.end_span(job)
        assert len(job.events) == n
        return peak - current

    run(100)  # warm-up
    small, large = run(1_000), run(10_000)
    # 10x the instants must not cost ~10x the transient overhead.  The
    # slack covers one list over-allocation copy of the events list.
    assert large <= 2 * small + 98_304, (small, large)
