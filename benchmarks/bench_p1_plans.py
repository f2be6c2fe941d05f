"""P1 — Planning throughput: controller plans per second, isolated.

The controller's :meth:`~repro.core.controller.OffloadController.plan`
path (build context → partition → allocate → refine → deploy) is the
per-decision cost of the offloading loop; the remediation plane replans
on every goodput-forecast breach, so plans/second bounds how often the
closed loop can react.  This bench isolates the plan path from the
simulation loop: one controller is built and profiled offline once,
then ``plan(input_mb)`` is timed over a fixed cycle of input sizes
(redeploys are mostly no-ops after the first pass — exactly the steady
state replanning sees).  Once the cycle has repeated, every input size
is one the controller's plan memo has already solved, so the timed
plans are memo hits: rate reads, key lookup, deploy check and metering,
with no context built.

Deterministic checks: the runtime meter's ``plans_computed`` counter
must equal the number of plan calls (the plan path is a metered hot
path), and the final partition digest regenerates bit-identically.
Plans/second itself is host-dependent and tracked as a trend over the
run ledger's ``bench`` rows rather than hard-gated.
"""

from __future__ import annotations

from time import perf_counter

from repro.apps import photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.metrics import Table, stable_digest

from _common import (
    SHORT,
    MetricSpec,
    emit,
    register_bench,
    timed_rows,
    write_bench_summary,
)

N_PLANS = 60 if SHORT else 400
REPEATS = 3 if SHORT else 5
INPUT_CYCLE = (1.0, 2.0, 4.0, 8.0)
SEED = 7


def build_controller() -> OffloadController:
    env = Environment.build(seed=SEED, connectivity="4g")
    controller = OffloadController(env, photo_backup_app())
    controller.profile_offline()
    return controller


def _plan_burst(controller: OffloadController, n: int) -> float:
    """Time ``n`` plan() calls cycling the input sizes; returns seconds."""
    cycle = INPUT_CYCLE
    before = controller.env.sim.meter.plans_computed
    started = perf_counter()
    for i in range(n):
        controller.plan(input_mb=cycle[i % len(cycle)])
    elapsed = perf_counter() - started
    # The plan path is a metered hot path: every call must land exactly
    # one plans_computed increment.
    assert controller.env.sim.meter.plans_computed - before == n
    return elapsed


@register_bench(
    "P1",
    metrics=(
        # Host-dependent throughput: report-only, trend-tracked over the
        # run ledger's bench rows.
        MetricSpec("plans_per_s", kind="ratio", direction="higher",
                   threshold=None),
        MetricSpec("partition_digest", kind="equal", same_mode=True),
    ),
    deterministic=("mode", "plans", "repeats", "input_cycle", "seed",
                   "n_cloud", "partition_digest"),
)
def run_p1() -> Table:
    controller = build_controller()
    # Warm pass: first-time deploys and allocator caches settle, so the
    # timed region measures steady-state replanning.
    partition = controller.plan(input_mb=INPUT_CYCLE[0])

    best = timed_rows(
        {"plans": lambda: _plan_burst(controller, N_PLANS)},
        repeats=REPEATS,
        warmup=False,
    )
    seconds = best["plans"]
    plans_per_s = N_PLANS / seconds

    # Determinism: replanning the same size reproduces the partition.
    partition = controller.plan(input_mb=INPUT_CYCLE[0])
    digest = stable_digest(
        {f"cloud/{name}": 1.0 for name in sorted(partition.cloud)}
    )

    table = Table(
        ["metric", "value"],
        title=f"P1: planning throughput — {N_PLANS} plans per round, "
              f"input cycle {list(INPUT_CYCLE)} MB, min of {REPEATS}",
        precision=3,
    )
    table.add_row("plans per round", N_PLANS)
    table.add_row("wall s (min of N)", seconds)
    table.add_row("plans / s", plans_per_s)
    table.add_row("cloud components", len(partition.cloud))
    table.add_row("partition digest", digest[:16])

    write_bench_summary(
        "P1",
        {
            "mode": "short" if SHORT else "full",
            "plans": N_PLANS,
            "repeats": REPEATS,
            "input_cycle": list(INPUT_CYCLE),
            "seed": SEED,
            "wall_s": seconds,
            "plans_per_s": plans_per_s,
            "n_cloud": len(partition.cloud),
            "partition_digest": digest,
        },
    )
    return table


if __name__ == "__main__":
    emit(run_p1())
