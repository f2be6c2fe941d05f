"""O2 — Kernel throughput: the committed baseline every PR is gated on.

Four microbenches isolate the kernel's hot paths plus one end-to-end
cell, so a regression in any of them is attributable:

* **pure_events** — callback-chained immediate events: the zero-delay
  fast lane with no generator machinery at all (events/second);
* **spawn_join** — process bootstrap, zero-delay timeout, join: the
  spawn-heavy pattern the serverless substrate leans on;
* **resource_ops** — contended acquire/hold/release cycles through
  :class:`~repro.sim.resources.Resource` (16 workers on 4 slots);
* **link_transfers** — full :class:`~repro.network.link.Link` transfers
  on a constant-bandwidth link (channel grant + serialisation timeout);
* **f6_end_to_end** — the F6a 80-job controller workload, the
  wall-clock number the ≥1.15x acceptance gate tracks.

``REPRO_BENCH_SHORT=1`` shrinks every op count ~8x for CI smoke runs.
The emitted ``BENCH_O2.json`` carries the frozen pre-PR kernel numbers
(measured on the machine that landed the fast lane) purely as the
speedup provenance; the CI regression gate instead compares a fresh run
against the *committed* ``benchmarks/BENCH_O2.json`` via
``tools/check_bench.py --bench O2`` (>20% events/sec drop fails).

Wall-clock columns are non-deterministic (like O1 and F6); every event
count in the table regenerates bit-identically.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.metrics import Table
from repro.network.link import Link
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.resources import Resource

from _common import (
    MetricSpec,
    emit,
    register_bench,
    timed_rows,
    write_bench_summary,
)

SHORT = os.environ.get("REPRO_BENCH_SHORT", "") not in ("", "0")
SCALE = 8 if SHORT else 1
N_PURE = 400_000 // SCALE
N_SPAWN = 80_000 // SCALE
N_RESOURCE = 64_000 // SCALE
N_LINK = 24_000 // SCALE
N_F6_JOBS = 80 // (4 if SHORT else 1)
REPEATS = 3 if SHORT else 5

#: Pre-PR kernel throughput (heap-only dispatch, allocating hot path),
#: measured with this same suite's op mix on the machine that landed the
#: fast-lane kernel.  Kept for provenance: the speedup columns below are
#: only meaningful on comparable hardware; cross-commit gating uses the
#: committed BENCH_O2.json instead.
PRE_PR_BASELINE = {
    "pure_events_per_s": 1_145_585.0,
    "spawn_join_per_s": 160_950.0,
    "resource_ops_per_s": 231_403.0,
    "link_transfers_per_s": 67_955.0,
    "f6_wall_s": 0.0718,
}


def _pure_events(n: int) -> float:
    """Chain ``n`` immediate succeed-dispatched events, no processes."""
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
    started = perf_counter()
    sim.run()
    elapsed = perf_counter() - started
    assert sim.events_processed == n + 1, sim.events_processed
    return elapsed


def _spawn_join(n: int) -> float:
    """A parent spawning and joining ``n`` zero-delay children."""
    sim = Simulator()

    def child(sim):
        yield sim.timeout(0)
        return 1

    def parent(sim):
        for _ in range(n):
            yield sim.spawn(child(sim))

    root = sim.spawn(parent(sim))
    started = perf_counter()
    sim.run(until=root)
    return perf_counter() - started


def _resource_ops(n: int, capacity: int = 4, workers: int = 16) -> float:
    """Contended request/hold/release cycles on a counted resource."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    per_worker = n // workers

    def worker(sim):
        for _ in range(per_worker):
            request = resource.request()
            yield request
            yield sim.timeout(0.001)
            resource.release(request)

    for _ in range(workers):
        sim.spawn(worker(sim))
    started = perf_counter()
    sim.run()
    return perf_counter() - started


def _link_transfers(n: int) -> float:
    """Back-to-back transfers over a constant-bandwidth two-channel link."""
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, latency_s=0.001, channels=2)

    def driver(sim):
        for _ in range(n):
            yield link.transfer(1000.0)

    root = sim.spawn(driver(sim))
    started = perf_counter()
    sim.run(until=root)
    return perf_counter() - started


def _f6_end_to_end(n_jobs: int):
    """The F6a jobs cell: full controller workload, measured wall."""
    from repro import Environment, Job, OffloadController
    from repro.apps import photo_backup_app

    env = Environment.build(seed=99, connectivity="4g")
    controller = OffloadController(env, photo_backup_app())
    controller.profile_offline()
    controller.plan(input_mb=3.0)
    jobs = [
        Job(controller.app, input_mb=3.0, released_at=5.0 * i,
            deadline=5.0 * i + 36_000.0)
        for i in range(n_jobs)
    ]
    started = perf_counter()
    report = controller.run_workload(jobs)
    elapsed = perf_counter() - started
    assert report.jobs_completed == n_jobs
    return elapsed, env.sim.events_processed


OPS = {
    "pure_events": N_PURE,
    "spawn_join": N_SPAWN,
    "resource_ops": N_RESOURCE,
    "link_transfers": N_LINK,
    "f6_end_to_end": N_F6_JOBS,
}


def measure() -> dict:
    """Min-of-REPEATS seconds per microbench, rounds interleaved."""
    f6_events = []

    def f6_thunk() -> float:
        elapsed, events = _f6_end_to_end(N_F6_JOBS)
        f6_events.append(events)
        return elapsed

    best = timed_rows(
        {
            "pure_events": lambda: _pure_events(N_PURE),
            "spawn_join": lambda: _spawn_join(N_SPAWN),
            "resource_ops": lambda: _resource_ops(N_RESOURCE),
            "link_transfers": lambda: _link_transfers(N_LINK),
            "f6_end_to_end": f6_thunk,
        },
        repeats=REPEATS,
    )
    # Determinism shape: the end-to-end cell dispatches the same event
    # count on every repeat (the wall column is the only noise).
    assert len(set(f6_events)) == 1, f6_events
    best["_f6_sim_events"] = float(f6_events[0])
    return best


@register_bench(
    "O2",
    metrics=(
        # The CI gate deliberately compares short-mode fresh numbers
        # against the committed full-mode baseline (same_mode False):
        # short mode shrinks op counts, not per-op cost, so events/sec
        # stays comparable.
        MetricSpec("events_per_s_pure", kind="ratio", direction="higher",
                   threshold=0.20),
    ),
    deterministic=("mode", "short_mode", "repeats", "ops", "f6_jobs",
                   "f6_sim_events"),
    primary="events_per_s_pure",
)
def run_o2() -> Table:
    best = measure()
    f6_sim_events = int(best.pop("_f6_sim_events"))
    table = Table(
        ["microbench", "ops", "wall s (min of N)", "ops/s",
         "speedup vs pre-PR kernel"],
        title=f"O2: kernel throughput — interleaved rounds, min of {REPEATS}"
              f"{' (short mode)' if SHORT else ''}",
        precision=3,
    )
    ops_per_s = {}
    for name, n_ops in OPS.items():
        seconds = best[name]
        ops_per_s[name] = n_ops / seconds
        if name == "f6_end_to_end":
            # The baseline is a full 80-job wall time; compare walls, and
            # only when this run used the full job count.
            speedup = (
                PRE_PR_BASELINE["f6_wall_s"] / seconds
                if n_ops == 80 else float("nan")
            )
        else:
            speedup = ops_per_s[name] / PRE_PR_BASELINE[f"{name}_per_s"]
        table.add_row(name, n_ops, seconds, ops_per_s[name], speedup)

    # Machine-independent shape: every op class pays more per op as it
    # stacks more kernel work (event < spawned process < link transfer).
    assert ops_per_s["pure_events"] > ops_per_s["spawn_join"], ops_per_s
    assert ops_per_s["spawn_join"] > ops_per_s["link_transfers"], ops_per_s
    assert ops_per_s["resource_ops"] > ops_per_s["link_transfers"], ops_per_s

    write_bench_summary(
        "O2",
        {
            "mode": "short" if SHORT else "full",
            "short_mode": SHORT,
            "repeats": REPEATS,
            "ops": dict(OPS),
            "wall_s": {name: best[name] for name in OPS},
            "ops_per_s": ops_per_s,
            "events_per_s_pure": ops_per_s["pure_events"],
            "f6_jobs": N_F6_JOBS,
            "f6_wall_s": best["f6_end_to_end"],
            "f6_sim_events": f6_sim_events,
            "baseline_pre_pr": PRE_PR_BASELINE,
        },
    )
    return table


def bench_o2_kernel(benchmark):
    table = benchmark.pedantic(run_o2, rounds=1, iterations=1)
    emit(table)


if __name__ == "__main__":
    emit(run_o2())
