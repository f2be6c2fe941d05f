"""A3 — Ablation: allocation search strategies.

Compares the exhaustive scan, the convexity-aware walk, and the coarse
probe-and-refine heuristic across a grid of function shapes: decision
quality (cost regret vs scan) and the number of tier probes each needed.
Expected shape: convex matches scan exactly (the cost curve is unimodal
under the Amdahl duration model) with fewer probes; coarse saves more
probes with occasional small regret.
"""

import math

from repro.core.allocation import MemoryAllocator
from repro.metrics import Table

from _common import emit

WORKLOADS = [
    ("tiny-serial", 0.5, 0.0, math.inf),
    ("small-parallel", 4.0, 0.6, math.inf),
    ("medium-serial", 20.0, 0.0, math.inf),
    ("medium-parallel", 20.0, 0.9, math.inf),
    ("large-parallel", 200.0, 0.95, math.inf),
    ("slo-bound", 50.0, 0.9, 8.0),
]


def run_a3() -> Table:
    table = Table(
        ["workload", "strategy", "chosen MB", "cost $", "probes",
         "regret %"],
        title="A3: allocation search strategies (regret vs exhaustive scan)",
        precision=3,
    )
    total_probes = {"scan": 0, "convex": 0, "coarse": 0}
    worst_regret = {"scan": 0.0, "convex": 0.0, "coarse": 0.0}
    for name, work, parallel, slo in WORKLOADS:
        reference = MemoryAllocator(strategy="scan").cheapest(
            name, work, parallel_fraction=parallel, latency_slo_s=slo
        )
        for strategy in ("scan", "convex", "coarse"):
            allocator = MemoryAllocator(strategy=strategy)
            decision = allocator.cheapest(
                name, work, parallel_fraction=parallel, latency_slo_s=slo
            )
            regret = 100 * (
                decision.expected_cost_usd / reference.expected_cost_usd - 1
            )
            total_probes[strategy] += decision.probes
            worst_regret[strategy] = max(worst_regret[strategy], regret)
            table.add_row(
                name, strategy, decision.memory_mb,
                decision.expected_cost_usd, decision.probes, regret,
            )
            assert decision.expected_duration_s <= slo + 1e-9
    # Convex is exact and cheaper to evaluate; coarse is cheapest with
    # bounded regret.
    assert worst_regret["convex"] <= 1e-9
    assert total_probes["convex"] < total_probes["scan"]
    assert total_probes["coarse"] < total_probes["scan"]
    assert worst_regret["coarse"] < 50.0
    return table


def bench_a3_allocation_ablation():
    table = run_a3()
    emit(table)

    probes = {}
    for row in table.rows:
        probes.setdefault(row[1], []).append(row[4])
    assert sum(probes["convex"]) < sum(probes["scan"])


if __name__ == "__main__":
    emit(run_a3())
