"""F7 — Fleet density economics.

A fleet of devices runs the same nightly-analytics job spread over a
fixed window, all sharing one set of serverless functions.  Expected
shape: as the fleet grows, each user's invocation keeps the sandboxes
warm for the next user — the cold-start fraction collapses *without any
provisioning* — while the per-job cost stays flat (pay-per-use) and
deadline safety is unaffected.  This is the fleet-scale version of the
paper's serverless argument.
"""

from repro import Job
from repro.apps import nightly_analytics_app
from repro.fleet import FleetController, FleetEnvironment
from repro.metrics import Table
from repro.serverless.platform import PlatformConfig

from _common import emit, sweep_rows

FLEET_SIZES = [2, 8, 32, 96]
WINDOW_S = 2 * 3600.0
INPUT_MB = 4.0
SLACK_S = 3600.0
SEED = 141


def run_fleet(n_devices):
    env = FleetEnvironment.build(
        n_devices=n_devices,
        seed=SEED,
        connectivity=["4g", "wifi"],
        platform_config=PlatformConfig(keep_alive_s=300.0),
    )
    fleet = FleetController(env, nightly_analytics_app())
    fleet.profile_offline()
    fleet.plan(input_mb=INPUT_MB)
    jobs = {
        index: [
            Job(
                fleet.app,
                input_mb=INPUT_MB,
                released_at=WINDOW_S * index / n_devices,
                deadline=WINDOW_S * index / n_devices + SLACK_S,
            )
        ]
        for index in range(n_devices)
    }
    report = fleet.run(jobs)
    return report, env


def fleet_cell(config):
    """Sweep cell: one fleet size, reported as a JSON row."""
    report, env = run_fleet(config["devices"])
    return {
        "cold_fraction": env.platform.cold_start_fraction(),
        "jobs_completed": report.jobs_completed,
        "per_job_usd": report.total_cloud_cost_usd / report.jobs_completed,
        "mean_response_s": report.mean_response_s,
        "miss_rate": report.deadline_miss_rate,
        "platform_usd": env.platform.total_cost,
    }


def run_f7() -> Table:
    table = Table(
        ["devices", "cold %", "$/job", "mean resp s", "miss %",
         "platform $ total"],
        title=f"F7: fleet density — one analytics job per device over "
              f"{WINDOW_S / 3600:.0f} h, shared functions",
        precision=3,
    )
    cold_curve = []
    per_job_costs = []
    configs = [{"devices": n} for n in FLEET_SIZES]
    for n_devices, cell in zip(FLEET_SIZES, sweep_rows(fleet_cell, configs)):
        cold = cell["cold_fraction"]
        cold_curve.append(cold)
        per_job_costs.append(cell["per_job_usd"])
        table.add_row(
            n_devices, 100 * cold, cell["per_job_usd"],
            cell["mean_response_s"], 100 * cell["miss_rate"],
            cell["platform_usd"],
        )
        assert cell["jobs_completed"] == n_devices
        assert cell["miss_rate"] == 0.0
    # Density melts cold starts away without provisioning anything.
    assert all(a >= b - 0.02 for a, b in zip(cold_curve, cold_curve[1:]))
    assert cold_curve[-1] < 0.25 * cold_curve[0]
    # Pay-per-use: per-job cost is flat across two orders of magnitude.
    assert max(per_job_costs) < 1.3 * min(per_job_costs)
    return table


def figure_f7(table) -> str:
    from repro.metrics import ascii_bars

    return ascii_bars(
        [f"{int(row[0])} devices" for row in table.rows],
        [row[1] for row in table.rows],
        title="cold-start % by fleet size (fixed per-device workload)",
        unit="%",
    )


def bench_f7_fleet():
    table = run_f7()
    emit(table)
    print(figure_f7(table))
    totals = table.column("platform $ total")
    # The aggregate bill scales linearly with the fleet (no step costs).
    assert totals[-1] > 10 * totals[0]


if __name__ == "__main__":
    table = run_f7()
    emit(table)
    print(figure_f7(table))
