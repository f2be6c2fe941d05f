"""F6 — Scalability of the controller and partitioners.

Two axes:

* **jobs** — wall-clock cost of simulating N concurrent jobs through the
  full controller (the discrete-event kernel must stay near-linear);
* **components** — planning time of the exact partitioners as the graph
  grows (min-cut must stay polynomial where exhaustive explodes), with
  the greedy gap measured where exhaustive is still feasible.
"""

import time

import pytest

from repro import Environment, Job, OffloadController
from repro.apps import linear_pipeline_app, photo_backup_app
from repro.core.partitioning import (
    ExhaustivePartitioner,
    GreedyPartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    PartitionContext,
)
from repro.metrics import Table
from repro.sim.rng import RngStream

from _common import emit, sweep_rows

JOB_COUNTS = [5, 20, 80]
COMPONENT_COUNTS = [6, 12, 24, 48, 96]
SEED = 99


def jobs_cell(config):
    """Sweep cell: simulate one job-count through the full controller."""
    n_jobs = config["jobs"]
    env = Environment.build(seed=SEED, connectivity="4g")
    controller = OffloadController(env, photo_backup_app())
    controller.profile_offline()
    controller.plan(input_mb=3.0)
    jobs = [
        Job(controller.app, input_mb=3.0, released_at=5.0 * i,
            deadline=5.0 * i + 36_000.0)
        for i in range(n_jobs)
    ]
    started = time.perf_counter()
    report = controller.run_workload(jobs)
    wall_ms = (time.perf_counter() - started) * 1000
    return {
        "sim_events": env.sim.events_processed,
        "wall_ms": wall_ms,
        "completed": report.jobs_completed,
        "all_met": report.deadline_miss_rate == 0.0,
    }


def run_jobs_axis() -> Table:
    table = Table(
        ["jobs", "sim events", "wall ms", "wall ms/job", "all met"],
        title="F6a: controller cost vs concurrent jobs (photo backup)",
        precision=2,
    )
    per_job = []
    configs = [{"jobs": n} for n in JOB_COUNTS]
    for n_jobs, cell in zip(JOB_COUNTS, sweep_rows(jobs_cell, configs)):
        per_job.append(cell["wall_ms"] / n_jobs)
        table.add_row(
            n_jobs, cell["sim_events"], cell["wall_ms"],
            cell["wall_ms"] / n_jobs, cell["all_met"],
        )
        assert cell["completed"] == n_jobs
    # Near-linear: per-job cost grows sublinearly with the job count
    # (16x more jobs must not cost more than ~4x more per job).
    assert per_job[-1] < per_job[0] * 4.0, per_job
    return table


def _pipeline_app(n):
    """The size-``n`` app of the seeded generator sequence.

    The generator sequence draws from one stream in COMPONENT_COUNTS
    order; replaying the prefix keeps every cell's app identical to the
    sequential harness no matter which worker builds it.
    """
    rng = RngStream(SEED)
    for size in COMPONENT_COUNTS:
        app = linear_pipeline_app(size, rng)
        if size == n:
            return app
    raise ValueError(f"{n} is not in COMPONENT_COUNTS")


def components_cell(config):
    """Sweep cell: time every partitioner on one graph size."""
    n = config["components"]
    app = _pipeline_app(n)
    work = {c.name: c.work_for(3.0) for c in app.components}
    ctx = PartitionContext(
        app=app, input_mb=3.0, work=work, uplink_bps=1.25e6,
        weights=ObjectiveWeights(),
    )

    def timed(partitioner):
        started = time.perf_counter()
        partition = partitioner.partition(ctx)
        elapsed_ms = (time.perf_counter() - started) * 1000
        from repro.core.partitioning import evaluate_partition

        return elapsed_ms, evaluate_partition(ctx, partition).objective

    mincut_ms, mincut_obj = timed(MinCutPartitioner())
    greedy_ms, greedy_obj = timed(GreedyPartitioner())
    if n <= 16:
        exhaustive_ms, exhaustive_obj = timed(ExhaustivePartitioner())
    else:
        exhaustive_ms = exhaustive_obj = None
    return {
        "mincut_ms": mincut_ms, "mincut_obj": mincut_obj,
        "greedy_ms": greedy_ms, "greedy_obj": greedy_obj,
        "exhaustive_ms": exhaustive_ms, "exhaustive_obj": exhaustive_obj,
    }


def run_components_axis() -> Table:
    table = Table(
        ["components", "mincut ms", "greedy ms", "exhaustive ms",
         "greedy gap %"],
        title="F6b: planning time vs graph size (linear pipelines)",
        precision=2,
    )
    mincut_times = []
    configs = [{"components": n} for n in COMPONENT_COUNTS]
    for n, cell in zip(COMPONENT_COUNTS, sweep_rows(components_cell, configs)):
        mincut_times.append(cell["mincut_ms"])
        if cell["exhaustive_obj"] is not None:
            assert cell["mincut_obj"] == pytest.approx(
                cell["exhaustive_obj"], rel=1e-7
            )
        gap = 100 * (cell["greedy_obj"] / cell["mincut_obj"] - 1)
        table.add_row(
            n, cell["mincut_ms"], cell["greedy_ms"], cell["exhaustive_ms"],
            gap,
        )
        assert cell["greedy_obj"] >= cell["mincut_obj"] - 1e-9  # the optimum
    # Min-cut stays fast even at 96 components.
    assert mincut_times[-1] < 2000.0, mincut_times
    return table


def bench_f6_scalability():
    jobs_table = run_jobs_axis()
    components_table = run_components_axis()
    emit(jobs_table)
    emit(components_table)

    gaps = components_table.column("greedy gap %")
    assert max(gaps) < 10.0  # greedy stays near-optimal as graphs grow


if __name__ == "__main__":
    emit(run_jobs_axis())
    emit(run_components_axis())
