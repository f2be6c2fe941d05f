"""A1 — Ablation: partitioning algorithms across graph families.

Validates the exactness claims at scale: over dozens of random graphs
per family, min-cut (and DP on trees) must match exhaustive enumeration
bit-for-bit, while greedy's worst-case gap and the myopic heuristic's
gap are quantified.
"""

from repro.apps import (
    fanout_fanin_app,
    layered_random_app,
    linear_pipeline_app,
    random_tree_app,
)
from repro.baselines import MyopicLatencyPartitioner
from repro.core.partitioning import (
    ExhaustivePartitioner,
    GreedyPartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    PartitionContext,
    TreeDPPartitioner,
)
from repro.metrics import Table
from repro.sim.rng import RngStream

from _common import emit

N_INSTANCES = 12
SEED = 101

FAMILIES = [
    ("pipeline-8", lambda rng: linear_pipeline_app(8, rng)),
    ("fanout-6", lambda rng: fanout_fanin_app(6, rng)),
    ("tree-10", lambda rng: random_tree_app(10, rng)),
    ("layered-3x3", lambda rng: layered_random_app(3, 3, rng)),
]


def make_context(app, uplink_bps):
    work = {c.name: c.work_for(3.0) for c in app.components}
    return PartitionContext(
        app=app, input_mb=3.0, work=work, uplink_bps=uplink_bps,
        weights=ObjectiveWeights(),
    )


def run_a1() -> Table:
    table = Table(
        ["family", "instances", "mincut=opt", "dp=opt", "greedy max gap %",
         "myopic max gap %", "myopic mean gap %"],
        title=f"A1: partitioner ablation — {N_INSTANCES} random instances "
              f"per family, 3 uplink rates each",
        precision=2,
    )
    for family_name, factory in FAMILIES:
        rng = RngStream(SEED)
        mincut_exact = 0
        dp_exact = 0
        dp_applicable = 0
        greedy_gaps = []
        myopic_gaps = []
        trials = 0
        for _ in range(N_INSTANCES):
            app = factory(rng)
            for uplink in (2.5e5, 1.25e6, 1.25e7):
                trials += 1
                ctx = make_context(app, uplink)
                optimal = ExhaustivePartitioner().evaluate(ctx).objective
                mincut = MinCutPartitioner().evaluate(ctx).objective
                if abs(mincut - optimal) <= 1e-7 * max(optimal, 1.0):
                    mincut_exact += 1
                if app.is_tree():
                    dp_applicable += 1
                    dp = TreeDPPartitioner().evaluate(ctx).objective
                    if abs(dp - optimal) <= 1e-7 * max(optimal, 1.0):
                        dp_exact += 1
                greedy = GreedyPartitioner().evaluate(ctx).objective
                myopic = MyopicLatencyPartitioner().evaluate(ctx).objective
                greedy_gaps.append(100 * (greedy / optimal - 1))
                myopic_gaps.append(100 * (myopic / optimal - 1))
        table.add_row(
            family_name,
            trials,
            f"{mincut_exact}/{trials}",
            f"{dp_exact}/{dp_applicable}" if dp_applicable else "n/a",
            max(greedy_gaps),
            max(myopic_gaps),
            sum(myopic_gaps) / len(myopic_gaps),
        )
        # Exactness must hold on every instance.
        assert mincut_exact == trials, family_name
        assert dp_exact == dp_applicable, family_name
        assert max(greedy_gaps) < 5.0, family_name
    return table


def bench_a1_partitioner_ablation():
    table = run_a1()
    emit(table)
    # The myopic heuristic must lose visibly somewhere — whole-graph
    # optimisation has measurable value.
    assert max(table.column("myopic max gap %")) > 5.0


if __name__ == "__main__":
    emit(run_a1())
