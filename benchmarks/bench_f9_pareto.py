"""F9 — The latency / energy / cost trade space (Pareto frontier).

The weighted objective collapses three axes into one number; this figure
shows what got collapsed.  Every feasible partition of the photo-backup
app is priced on (makespan, UE energy, cloud cost) and the non-dominated
set extracted.  Expected shape: local-only and full-offload anchor the
frontier's ends, the optimiser's picks for interactive and
non-time-critical weights both *lie on* the frontier, and the frontier
itself is small — most of the 2^n partitions are strictly dominated.
"""

import itertools

from repro.apps import photo_backup_app
from repro.core.partitioning import (
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    PartitionEvaluation,
    evaluate_partition,
    pareto_front,
)
from repro.metrics import Table

from _common import emit, sweep_rows

INPUT_MB = 4.0
UPLINK_BPS = 5e5  # 4 Mbit/s: near the crossover, where trades are real


def make_context(weights=None):
    app = photo_backup_app()
    work = {c.name: c.work_for(INPUT_MB) for c in app.components}
    return app, PartitionContext(
        app=app, input_mb=INPUT_MB, work=work, uplink_bps=UPLINK_BPS,
        weights=weights or ObjectiveWeights(),
    )


def pareto_cell(config):
    """Sweep cell: price one partition on every axis."""
    app, ctx = make_context()
    partition = Partition(app.name, frozenset(config["cloud"]))
    evaluation = evaluate_partition(ctx, partition)
    return {
        "serialized_latency_s": evaluation.serialized_latency_s,
        "makespan_s": evaluation.makespan_s,
        "ue_energy_j": evaluation.ue_energy_j,
        "cloud_cost_usd": evaluation.cloud_cost_usd,
        "objective": evaluation.objective,
    }


def all_evaluations(app, ctx):
    offloadable = app.offloadable_names()
    configs = [
        {"cloud": sorted(subset)}
        for r in range(len(offloadable) + 1)
        for subset in itertools.combinations(offloadable, r)
    ]
    cells = sweep_rows(pareto_cell, configs)
    return [
        PartitionEvaluation(
            partition=Partition(app.name, frozenset(config["cloud"])),
            serialized_latency_s=cell["serialized_latency_s"],
            makespan_s=cell["makespan_s"],
            ue_energy_j=cell["ue_energy_j"],
            cloud_cost_usd=cell["cloud_cost_usd"],
            objective=cell["objective"],
        )
        for config, cell in zip(configs, cells)
    ]


def two_axis_frontier(evaluations):
    """Non-dominated set on (makespan, cost) alone — the curve the
    latency-vs-dollars conversation is actually about."""
    pool = sorted(evaluations, key=lambda e: (e.makespan_s, e.cloud_cost_usd))
    frontier = []
    best_cost = float("inf")
    for evaluation in pool:
        if evaluation.cloud_cost_usd < best_cost - 1e-15:
            frontier.append(evaluation)
            best_cost = evaluation.cloud_cost_usd
    return frontier


def run_f9() -> Table:
    app, ctx = make_context()
    evaluations = all_evaluations(app, ctx)
    frontier3d = pareto_front(evaluations)
    frontier_keys = {e.partition.cloud for e in frontier3d}
    frontier = two_axis_frontier(evaluations)

    interactive_pick = MinCutPartitioner().partition(
        make_context(ObjectiveWeights.interactive())[1]
    )
    ntc_pick = MinCutPartitioner().partition(
        make_context(ObjectiveWeights.non_time_critical())[1]
    )

    table = Table(
        ["partition (cloud side)", "makespan s", "energy J", "cost $",
         "frontier", "picked by"],
        title=f"F9: the makespan/cost frontier — photo backup, "
              f"{INPUT_MB:.0f} MB at {UPLINK_BPS * 8 / 1e6:.0f} Mbit/s "
              f"({len(evaluations)} feasible partitions, "
              f"{len(frontier)} on the 2-axis frontier, "
              f"{len(frontier3d)} on the 3-axis one)",
        precision=2,
    )
    shown = sorted(frontier, key=lambda e: e.makespan_s)
    shown_keys = {e.partition.cloud for e in shown}
    # Ensure the weight presets' picks appear even when they sit on the
    # 3-axis frontier only (energy breaks the 2-axis tie).
    extras = [
        e for e in evaluations
        if e.partition.cloud in {interactive_pick.cloud, ntc_pick.cloud}
        and e.partition.cloud not in shown_keys
    ]
    for evaluation in shown + sorted(extras, key=lambda e: e.makespan_s):
        cloud = evaluation.partition.cloud
        picked = []
        if cloud == interactive_pick.cloud:
            picked.append("interactive")
        if cloud == ntc_pick.cloud:
            picked.append("ntc")
        label = "{" + ", ".join(sorted(cloud)) + "}" if cloud else "(local-only)"
        table.add_row(
            label[:44], evaluation.makespan_s, evaluation.ue_energy_j,
            evaluation.cloud_cost_usd,
            "2-axis" if cloud in shown_keys else "3-axis",
            "+".join(picked) or "-",
        )

    # Shape assertions: the 2-axis curve is sparse (most partitions are
    # strictly dominated once energy ties are projected out), both weight
    # presets pick 3-axis-efficient partitions, and local-only anchors
    # the zero-cost corner.
    assert len(frontier) < 0.4 * len(evaluations)
    assert interactive_pick.cloud in frontier_keys
    assert ntc_pick.cloud in frontier_keys
    assert any(not e.partition.cloud for e in frontier)
    return table


def bench_f9_pareto():
    table = run_f9()
    emit(table)
    # The frontier spans a real trade: fastest vs cheapest differ a lot.
    makespans = table.column("makespan s")
    costs = table.column("cost $")
    assert max(makespans) > 1.3 * min(makespans)
    assert max(costs) > 0 and min(costs) == 0.0


if __name__ == "__main__":
    emit(run_f9())
