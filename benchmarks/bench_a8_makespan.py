"""A8 — Ablation: serialized proxy vs direct makespan optimisation.

The exact partitioners optimise a *serialized* latency proxy (sum of
durations + cut transfers) because it is separable and min-cut-solvable.
On graphs with real parallelism the proxy can deviate from the true
DAG-makespan optimum.  This ablation quantifies the deviation across
fan-out graphs under interactive (latency-heavy) weights, and shows that
seeding simulated annealing with the proxy solution recovers the exact
makespan optimum.
"""

from repro.apps import fanout_fanin_app
from repro.core.partitioning import (
    ExhaustivePartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    PartitionContext,
    SimulatedAnnealingPartitioner,
    evaluate_partition,
)
from repro.metrics import Table
from repro.sim.rng import RngStream

from _common import emit

N_INSTANCES = 25
WIDTH = 5
UPLINKS = (2.5e5, 1.25e6)
SEED = 171


def makespan_score(ctx, partition):
    evaluation = evaluate_partition(ctx, partition)
    return ctx.weights.combine(
        evaluation.makespan_s, evaluation.ue_energy_j, evaluation.cloud_cost_usd
    )


def run_a8() -> Table:
    table = Table(
        ["uplink Mbit/s", "instances", "proxy gap >0", "proxy max gap %",
         "proxy mean gap %", "annealing max gap %"],
        title=f"A8: makespan optimality — fanout-{WIDTH} graphs, "
              f"interactive weights, gap vs exhaustive-makespan",
        precision=3,
    )
    weights = ObjectiveWeights.interactive()
    for uplink in UPLINKS:
        proxy_gaps = []
        annealing_gaps = []
        for index in range(N_INSTANCES):
            app = fanout_fanin_app(WIDTH, RngStream(SEED + index))
            work = {c.name: c.work_for(2.0) for c in app.components}
            ctx = PartitionContext(
                app=app, input_mb=2.0, work=work, uplink_bps=uplink,
                weights=weights,
            )
            optimal = makespan_score(
                ctx, ExhaustivePartitioner(use_makespan=True).partition(ctx)
            )
            proxy = makespan_score(ctx, MinCutPartitioner().partition(ctx))
            annealed = makespan_score(
                ctx,
                SimulatedAnnealingPartitioner(
                    RngStream(SEED + 1000 + index), iterations=800
                ).partition(ctx),
            )
            proxy_gaps.append(100 * (proxy / optimal - 1))
            annealing_gaps.append(100 * (annealed / optimal - 1))
            # The annealer never does worse than its min-cut seed.
            assert annealed <= proxy + 1e-9
        table.add_row(
            uplink * 8 / 1e6,
            N_INSTANCES,
            sum(1 for g in proxy_gaps if g > 1e-4),
            max(proxy_gaps),
            sum(proxy_gaps) / len(proxy_gaps),
            max(annealing_gaps),
        )
        # The proxy stays near-optimal; annealing is (empirically) exact.
        assert max(proxy_gaps) < 2.0
        assert max(annealing_gaps) < 0.05
    return table


def bench_a8_makespan():
    table = run_a8()
    emit(table)
    # The gap is real on at least one uplink (the proxy is not free).
    assert max(table.column("proxy gap >0")) >= 1


if __name__ == "__main__":
    emit(run_a8())
