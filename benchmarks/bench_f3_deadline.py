"""F3 — Deadline-miss rate vs slack (is the batcher safe?).

Sweeps the slack factor (deadline = release + factor x service-time
estimate) and measures miss rate and cost for the immediate dispatcher,
EDF, and the deadline batcher.  Expected shape: every policy misses when
slack < 1x service time (physically impossible deadlines); the batcher
holds zero misses from moderate slack on while cutting cold starts, i.e.
deferral never costs deadline safety.
"""

from repro import (
    DeadlineBatcher,
    EagerScheduler,
    Environment,
    Job,
    OffloadController,
    photo_backup_app,
)
from repro.core.scheduler import EdfScheduler
from repro.metrics import Table
from repro.serverless.platform import PlatformConfig

from _common import emit

SLACK_FACTORS = [0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
N_JOBS = 10
INPUT_MB = 4.0
SEED = 55
SERVICE_ESTIMATE_S = 25.0  # rough end-to-end time of one job on 4G


def run_policy(scheduler_factory, slack_factor):
    env = Environment.build(
        seed=SEED,
        connectivity="4g",
        platform_config=PlatformConfig(keep_alive_s=300.0),
    )
    controller = OffloadController(
        env, photo_backup_app(), scheduler=scheduler_factory()
    )
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)
    slack = slack_factor * SERVICE_ESTIMATE_S
    jobs = [
        Job(controller.app, input_mb=INPUT_MB, released_at=40.0 * i,
            deadline=40.0 * i + slack)
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    return report, env


def run_f3() -> Table:
    schedulers = [
        ("eager", EagerScheduler),
        ("edf", EdfScheduler),
        ("batcher-5min", lambda: DeadlineBatcher(window_s=300.0)),
    ]
    table = Table(
        ["slack factor", "scheduler", "miss %", "mean resp s",
         "cloud $", "cold %"],
        title=f"F3: deadline misses vs slack — {N_JOBS} photo-backup jobs, "
              f"service ≈ {SERVICE_ESTIMATE_S:.0f} s",
        precision=2,
    )
    miss_curves = {name: [] for name, _ in schedulers}
    for factor in SLACK_FACTORS:
        for name, factory in schedulers:
            report, env = run_policy(factory, factor)
            miss = report.deadline_miss_rate
            miss_curves[name].append(miss)
            table.add_row(
                factor, name, 100 * miss, report.mean_response_s,
                report.total_cloud_cost_usd,
                100 * env.platform.cold_start_fraction(),
            )
    for name, curve in miss_curves.items():
        # Misses are (weakly) monotone decreasing in slack.
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:])), (name, curve)
        # Impossible deadlines are missed; generous ones are met.
        assert curve[0] > 0.5, (name, curve)
        assert curve[-1] == 0.0, (name, curve)
    return table


def bench_f3_deadline():
    table = run_f3()
    emit(table)

    # At generous slack the batcher must not miss, despite deferring.
    rows = [r for r in table.rows if r[0] == SLACK_FACTORS[-1]]
    by_name = {r[1]: r for r in rows}
    assert by_name["batcher-5min"][2] == 0.0
    # And deferral visibly raises response time (that is the trade).
    assert by_name["batcher-5min"][3] > by_name["eager"][3]


if __name__ == "__main__":
    emit(run_f3())
