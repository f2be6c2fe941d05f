"""T2 — Partitioning quality across applications.

Every partitioner prices the three catalog applications (plus a random
layered DAG) under identical planning contexts; the exact methods must
match exhaustive enumeration and beat the trivial/naive baselines.
"""

import pytest

from repro.apps import (
    layered_random_app,
    ml_training_app,
    nightly_analytics_app,
    photo_backup_app,
)
from repro.baselines import MyopicLatencyPartitioner, RandomPartitioner
from repro.core.partitioning import (
    ExhaustivePartitioner,
    FixedPartitioner,
    GreedyPartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
)
from repro.metrics import Table
from repro.sim.rng import RngStream

from _common import emit

INPUT_MB = 4.0
UPLINK_BPS = 1.25e6  # 10 Mbit/s 4G-class uplink


def make_apps():
    return [
        photo_backup_app(),
        nightly_analytics_app(),
        ml_training_app(),
        layered_random_app(4, 3, RngStream(17), name="layered4x3"),
    ]


def make_context(app):
    work = {c.name: c.work_for(INPUT_MB) for c in app.components}
    return PartitionContext(
        app=app,
        input_mb=INPUT_MB,
        work=work,
        uplink_bps=UPLINK_BPS,
        weights=ObjectiveWeights(),
    )


def make_partitioners(app):
    return [
        ("local-only", FixedPartitioner(Partition.local_only(app))),
        ("full-offload", FixedPartitioner(Partition.full_offload(app))),
        ("random", RandomPartitioner(RngStream(3))),
        ("myopic", MyopicLatencyPartitioner()),
        ("greedy", GreedyPartitioner()),
        ("mincut", MinCutPartitioner()),
        ("exhaustive", ExhaustivePartitioner()),
    ]


def run_t2() -> Table:
    table = Table(
        ["app", "partitioner", "objective", "makespan s", "energy J",
         "cost $", "n cloud"],
        title=f"T2: partition quality at {UPLINK_BPS * 8 / 1e6:.0f} Mbit/s "
              f"uplink, {INPUT_MB:.0f} MB inputs",
        precision=3,
    )
    for app in make_apps():
        ctx = make_context(app)
        results = {}
        for name, partitioner in make_partitioners(app):
            evaluation = partitioner.evaluate(ctx)
            results[name] = evaluation
            table.add_row(
                app.name, name, evaluation.objective, evaluation.makespan_s,
                evaluation.ue_energy_j, evaluation.cloud_cost_usd,
                len(evaluation.partition.cloud),
            )
        # Shape assertions per app.
        optimal = results["exhaustive"].objective
        assert results["mincut"].objective == pytest.approx(optimal, rel=1e-7)
        assert results["greedy"].objective <= optimal * 1.05
        assert optimal <= results["local-only"].objective + 1e-9
        assert optimal <= results["full-offload"].objective + 1e-9
        assert optimal <= results["random"].objective + 1e-9
        assert optimal <= results["myopic"].objective + 1e-9
    return table


def bench_t2_partitioning():
    table = run_t2()
    emit(table)
    # Across all apps the optimum strictly beats the random baseline.
    objectives = {}
    for row in table.rows:
        objectives.setdefault(row[0], {})[row[1]] = row[2]
    improvements = [
        row["random"] / row["exhaustive"] for row in objectives.values()
    ]
    assert max(improvements) > 1.05  # random loses clearly somewhere


if __name__ == "__main__":
    emit(run_t2())
