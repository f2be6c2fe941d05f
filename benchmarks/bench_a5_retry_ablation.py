"""A5 — Ablation: retry policy under transient failures.

Sweeps the platform's transient-failure probability against the retry
budget.  Expected shape: one attempt fails jobs at roughly the failure
rate; a few retries push end-to-end success toward 100% while the wasted
(billed-but-failed) spend grows with the failure rate, not with the
budget — retries only run when needed.
"""

import pytest

from repro.metrics import Table
from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    RetriesExhaustedError,
    RetryPolicy,
    ServerlessPlatform,
    invoke_with_retries,
)
from repro.sim import Simulator
from repro.sim.rng import RngStream

from _common import emit

FAILURE_RATES = [0.0, 0.1, 0.3]
MAX_ATTEMPTS = [1, 2, 4]
N_REQUESTS = 200
WORK_GCYCLES = 2.4
SEED = 131


def run_cell(failure_rate, attempts):
    sim = Simulator()
    platform = ServerlessPlatform(
        sim,
        PlatformConfig(
            keep_alive_s=600.0,
            cold_start_base_s=0.4,
            cold_start_per_package_mb_s=0.0,
            failure_probability=failure_rate,
        ),
        rng=RngStream(SEED),
    )
    platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
    policy = RetryPolicy(max_attempts=attempts, base_delay_s=0.5, multiplier=2.0)
    stats = {"ok": 0, "failed": 0, "wasted": 0.0, "latency": 0.0}

    def driver(sim):
        for _ in range(N_REQUESTS):
            started = sim.now
            try:
                outcome = yield invoke_with_retries(
                    platform, InvocationRequest("f", WORK_GCYCLES), policy
                )
            except RetriesExhaustedError as error:
                stats["failed"] += 1
                stats["wasted"] += error.wasted_usd
            else:
                stats["ok"] += 1
                stats["wasted"] += outcome.wasted_usd
                stats["latency"] += sim.now - started
            yield sim.timeout(10.0)

    sim.run(until=sim.spawn(driver(sim)))
    return {
        "success": stats["ok"] / N_REQUESTS,
        "wasted_usd": stats["wasted"],
        "mean_latency": stats["latency"] / max(stats["ok"], 1),
    }


def run_a5() -> Table:
    table = Table(
        ["failure %", "max attempts", "success %", "wasted $ (x1e-5)",
         "mean ok-latency s"],
        title=f"A5: retry budget vs transient failure rate — "
              f"{N_REQUESTS} requests each",
        precision=2,
    )
    cells = {}
    for failure_rate in FAILURE_RATES:
        for attempts in MAX_ATTEMPTS:
            outcome = run_cell(failure_rate, attempts)
            cells[(failure_rate, attempts)] = outcome
            table.add_row(
                100 * failure_rate, attempts, 100 * outcome["success"],
                outcome["wasted_usd"] * 1e5, outcome["mean_latency"],
            )
    # No failures -> perfect success, zero waste, for any budget.
    for attempts in MAX_ATTEMPTS:
        clean = cells[(0.0, attempts)]
        assert clean["success"] == 1.0
        assert clean["wasted_usd"] == 0.0
    # With failures, success grows with the retry budget...
    for failure_rate in FAILURE_RATES[1:]:
        successes = [cells[(failure_rate, a)]["success"] for a in MAX_ATTEMPTS]
        assert all(a <= b + 1e-9 for a, b in zip(successes, successes[1:]))
        # ...single attempts lose roughly the failure rate...
        assert cells[(failure_rate, 1)]["success"] == pytest.approx(
            1 - failure_rate, abs=0.08
        )
        # ...and four attempts recover nearly everything.
        assert cells[(failure_rate, 4)]["success"] > 0.98
    return table


def bench_a5_retry_ablation():
    table = run_a5()
    emit(table)
    # Waste scales with the failure rate (for the biggest budget).
    waste = {
        (row[0], row[1]): row[3] for row in table.rows
    }
    assert waste[(30.0, 4)] > waste[(10.0, 4)] > waste[(0.0, 4)]


if __name__ == "__main__":
    emit(run_a5())
