"""F4 — Batching window vs cost and cold starts.

Diurnal arrivals with long inter-arrival gaps (so an eager dispatcher
cold-starts nearly every job), swept over the batcher's window size.
Expected shape: cold-start fraction and per-job platform overhead fall
as the window grows — jobs arrive at the platform together and reuse
warm instances — until the window exceeds the jobs' slack and deadline
pressure forces early dispatches again (visible as the curve flattening,
never as misses).
"""

from repro import DeadlineBatcher, EagerScheduler, Environment, Job, OffloadController
from repro.apps import nightly_analytics_app
from repro.metrics import Table
from repro.serverless.platform import PlatformConfig
from repro.sim.rng import RngStream
from repro.traces import DiurnalArrivals

from _common import emit

WINDOWS_S = [0.0, 300.0, 900.0, 3600.0, 10800.0]  # 0 = eager
N_JOBS = 18
INPUT_MB = 6.0
SLACK_S = 6 * 3600.0
SEED = 66
KEEP_ALIVE_S = 240.0


def make_jobs(app):
    arrivals = DiurnalArrivals(
        base_rate=N_JOBS / 30_000.0, amplitude=0.6, rng=RngStream(SEED)
    )
    jobs = []
    for released in arrivals.times(horizon=10 * 30_000.0):
        jobs.append(
            Job(app, input_mb=INPUT_MB, released_at=released,
                deadline=released + SLACK_S)
        )
        if len(jobs) >= N_JOBS:
            break
    return jobs


def run_window(window_s):
    env = Environment.build(
        seed=SEED,
        connectivity="4g",
        platform_config=PlatformConfig(keep_alive_s=KEEP_ALIVE_S),
    )
    scheduler = (
        EagerScheduler() if window_s == 0.0 else DeadlineBatcher(window_s=window_s)
    )
    controller = OffloadController(env, nightly_analytics_app(), scheduler=scheduler)
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)
    report = controller.run_workload(make_jobs(controller.app))
    return report, env


def run_f4() -> Table:
    table = Table(
        ["window s", "cold %", "$/job", "mean resp s", "miss %"],
        title=f"F4: batching window sweep — {N_JOBS} analytics jobs, "
              f"{SLACK_S / 3600:.0f} h slack, keep-alive {KEEP_ALIVE_S:.0f} s",
        precision=3,
    )
    cold_fractions = []
    for window in WINDOWS_S:
        report, env = run_window(window)
        cold = env.platform.cold_start_fraction()
        cold_fractions.append(cold)
        table.add_row(
            window, 100 * cold,
            report.total_cloud_cost_usd / max(report.jobs_completed, 1),
            report.mean_response_s, 100 * report.deadline_miss_rate,
        )
        assert report.deadline_miss_rate == 0.0, window
    # Batching at any window beats eager on cold starts; the widest
    # window gives the largest reduction.
    assert min(cold_fractions[1:]) < cold_fractions[0]
    assert cold_fractions[-1] <= cold_fractions[0] * 0.5
    return table


def bench_f4_batching():
    table = run_f4()
    emit(table)
    # Response time grows with the window — the explicit trade.
    responses = table.column("mean resp s")
    assert responses[-1] > responses[0]


if __name__ == "__main__":
    emit(run_f4())
