"""A4 — Ablation: cold-start mitigation strategies.

Sparse traffic (mean gap 400 s, keep-alive 120 s) cold-starts nearly
every request.  Four mitigations are compared on identical arrivals:

* **baseline** — nothing;
* **keep-alive x10** — platform holds sandboxes longer (free on real
  platforms up to a point, modelled as free here);
* **batching** — dispatches quantised to 1 h boundaries and sent
  *sequentially* within a batch so every member after the first reuses
  the warm sandbox (costs response delay, not money);
* **prewarm 1** — one provisioned sandbox (costs GB-seconds around the
  clock, eliminates cold starts entirely).
"""

import math

from repro.metrics import Table
from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    ServerlessPlatform,
)
from repro.sim import Simulator
from repro.sim.rng import RngStream
from repro.traces import PoissonArrivals

from _common import emit

N_REQUESTS = 150
MEAN_GAP_S = 400.0
WORK_GCYCLES = 2.4
SEED = 121
BATCH_WINDOW_S = 3600.0


def arrival_times():
    process = PoissonArrivals(1.0 / MEAN_GAP_S, RngStream(SEED))
    times = []
    t = 0.0
    for _ in range(N_REQUESTS):
        t = process.next_after(t)
        times.append(t)
    return times


def run_strategy(strategy):
    keep_alive = 1200.0 if strategy == "keep-alive x10" else 120.0
    sim = Simulator()
    platform = ServerlessPlatform(
        sim,
        PlatformConfig(
            keep_alive_s=keep_alive,
            cold_start_base_s=0.4,
            cold_start_per_package_mb_s=0.004,
        ),
    )
    platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=50))

    times = arrival_times()
    if strategy == "batching":
        dispatch_times = [
            math.floor(t / BATCH_WINDOW_S + 1.0) * BATCH_WINDOW_S for t in times
        ]
    else:
        dispatch_times = times

    sequential = strategy == "batching"

    def driver(sim):
        if strategy == "prewarm 1":
            yield platform.prewarm("f", 1)
        pending = []
        for release, dispatch in zip(times, dispatch_times):
            yield sim.timeout(max(dispatch - sim.now, 0.0))
            invocation = platform.invoke(InvocationRequest("f", WORK_GCYCLES))
            if sequential:
                # A batching client drains its batch one by one, so each
                # member after the first lands on the warm sandbox.
                yield invocation
            else:
                pending.append(invocation)
        if pending:
            yield sim.all_of(pending)

    sim.run(until=sim.spawn(driver(sim)))
    latencies = sorted(
        record.finished_at - release
        for record, release in zip(platform.invocations, times)
    )
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[int(len(latencies) * 0.99) - 1]
    return {
        "cold": platform.cold_start_fraction(),
        "p50": p50,
        "p99": p99,
        "invocation $": sum(i.cost for i in platform.invocations),
        "provisioned $": platform.provisioned_cost(),
    }


STRATEGIES = ["baseline", "keep-alive x10", "batching", "prewarm 1"]


def run_a4() -> Table:
    table = Table(
        ["strategy", "cold %", "p50 resp s", "p99 resp s",
         "invocation $", "provisioned $", "total $"],
        title=f"A4: cold-start mitigation — {N_REQUESTS} requests, "
              f"mean gap {MEAN_GAP_S:.0f} s, keep-alive 120 s",
        precision=3,
    )
    results = {}
    for strategy in STRATEGIES:
        outcome = run_strategy(strategy)
        results[strategy] = outcome
        table.add_row(
            strategy, 100 * outcome["cold"], outcome["p50"], outcome["p99"],
            outcome["invocation $"], outcome["provisioned $"],
            outcome["invocation $"] + outcome["provisioned $"],
        )
    # Shapes: every mitigation beats the baseline on cold starts.
    for strategy in STRATEGIES[1:]:
        assert results[strategy]["cold"] < results["baseline"]["cold"]
    # Prewarming eliminates cold starts but is the only one paying
    # provisioned dollars.
    assert results["prewarm 1"]["cold"] < 0.03
    assert results["prewarm 1"]["provisioned $"] > 0
    assert all(results[s]["provisioned $"] == 0 for s in STRATEGIES[:3])
    # Batching pays in response time instead.
    assert results["batching"]["p50"] > 10 * results["baseline"]["p50"]
    return table


def bench_a4_coldstart_mitigation():
    table = run_a4()
    emit(table)
    totals = {row[0]: row[6] for row in table.rows}
    # At this sparsity the provisioned pool costs more than the entire
    # invocation bill — the economics the batcher avoids.
    assert totals["prewarm 1"] > totals["batching"]


if __name__ == "__main__":
    emit(run_a4())
