"""F2 — Cold-start impact vs arrival rate and keep-alive.

Drives a single serverless function with Poisson arrivals across four
orders of magnitude of rate, at two keep-alive settings.  Expected
shape: at inter-arrival times far above the keep-alive every request
cold-starts and p99 latency sits on the cold-start cliff; as the rate
rises past 1/keep-alive the warm pool absorbs the traffic and the cold
fraction collapses.
"""

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

RATES_PER_S = [0.0005, 0.002, 0.01, 0.05, 0.5]
KEEP_ALIVES_S = [120.0, 900.0]
WORK_GCYCLES = 2.4  # 1 s at one vCPU
N_REQUESTS = 300
SEED = 77


def run_one(rate, keep_alive):
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
    arrivals = PoissonArrivals(rate, RngStream(SEED))

    def driver(sim):
        t = 0.0
        submitted = []
        for _ in range(N_REQUESTS):
            t = arrivals.next_after(t)
            yield sim.timeout(t - sim.now)
            submitted.append(platform.invoke(InvocationRequest("f", WORK_GCYCLES)))
        yield sim.all_of(submitted)

    sim.run(until=sim.spawn(driver(sim)))
    latencies = sorted(r.latency for r in platform.invocations)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[int(len(latencies) * 0.99) - 1]
    return platform.cold_start_fraction(), p50, p99


def run_f2() -> Table:
    table = Table(
        ["arrival rate /s", "mean gap s", "keep-alive s", "cold %",
         "p50 latency s", "p99 latency s"],
        title=f"F2: cold-start behaviour — {N_REQUESTS} Poisson requests, "
              f"1 s of work per request",
        precision=3,
    )
    for keep_alive in KEEP_ALIVES_S:
        fractions = []
        for rate in RATES_PER_S:
            cold, p50, p99 = run_one(rate, keep_alive)
            fractions.append(cold)
            table.add_row(rate, 1.0 / rate, keep_alive, 100 * cold, p50, p99)
        # Cold fraction is (weakly) monotone decreasing in arrival rate.
        assert all(
            a >= b - 0.05 for a, b in zip(fractions, fractions[1:])
        ), fractions
        # Sparse traffic mostly cold-starts (Poisson clustering still
        # yields P(gap < keep-alive) warm hits); dense almost never.
        assert fractions[0] > 0.5
        assert fractions[-1] < 0.1
    return table


def bench_f2_coldstart():
    table = run_f2()
    emit(table)

    # A longer keep-alive strictly helps at the intermediate rates.
    by_key = {(row[0], row[2]): row[3] for row in table.rows}
    mid_rate = RATES_PER_S[2]
    assert by_key[(mid_rate, 900.0)] <= by_key[(mid_rate, 120.0)]
    # The cold-start cliff is visible in tail latency at sparse rates.
    sparse_p99 = [r[5] for r in table.rows if r[0] == RATES_PER_S[0]]
    dense_p50 = [r[4] for r in table.rows if r[0] == RATES_PER_S[-1]]
    assert min(sparse_p99) > max(dense_p50)


if __name__ == "__main__":
    emit(run_f2())
