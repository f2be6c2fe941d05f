"""A9 — Ablation: the scheduler's deadline safety factor.

The batcher defers each job up to ``deadline − safety·estimate``.  The
safety factor absorbs estimation error (demand noise, cold starts,
queueing): too small and deferral gambles with deadlines, too large and
slack is left on the table (less batching, earlier dispatches).  The
sweep runs under deliberately high execution noise so the risk is real.
"""

from repro import DeadlineBatcher, Environment, Job, OffloadController, photo_backup_app
from repro.metrics import Table
from repro.serverless.platform import PlatformConfig

from _common import emit

SAFETY_FACTORS = [1.0, 1.25, 1.5, 2.0, 3.0]
N_JOBS = 20
INPUT_MB = 4.0
SLACK_S = 120.0  # tight enough that the safety clamp binds
SEED = 181
NOISE_SIGMA = 0.35  # heavy run-to-run demand variation


def run_factor(safety_factor):
    env = Environment.build(
        seed=SEED,
        connectivity="4g",
        execution_noise_sigma=NOISE_SIGMA,
        platform_config=PlatformConfig(keep_alive_s=240.0),
    )
    controller = OffloadController(
        env,
        photo_backup_app(),
        scheduler=DeadlineBatcher(window_s=400.0, safety_factor=safety_factor),
    )
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)
    jobs = [
        Job(controller.app, input_mb=INPUT_MB, released_at=120.0 * i,
            deadline=120.0 * i + SLACK_S)
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    deferral = sum(
        max(result.started_at - result.job.released_at, 0.0)
        for result in report.results
    ) / max(report.jobs_completed, 1)
    return report, deferral, env.platform.cold_start_fraction()


def run_a9() -> Table:
    table = Table(
        ["safety factor", "miss %", "mean deferral s", "mean resp s",
         "cold %"],
        title=f"A9: batcher safety factor — {N_JOBS} jobs, "
              f"{SLACK_S:.0f} s slack, ±35% execution noise",
        precision=2,
    )
    misses = []
    deferrals = []
    for safety_factor in SAFETY_FACTORS:
        report, deferral, cold_fraction = run_factor(safety_factor)
        misses.append(report.deadline_miss_rate)
        deferrals.append(deferral)
        table.add_row(
            safety_factor,
            100 * report.deadline_miss_rate,
            deferral,
            report.mean_response_s,
            100 * cold_fraction,
        )
    # More safety margin => (weakly) fewer misses and less deferral.
    assert all(a >= b - 1e-9 for a, b in zip(misses, misses[1:])), misses
    assert all(a >= b - 1e-6 for a, b in zip(deferrals, deferrals[1:])), deferrals
    # The conservative end is safe even under heavy noise.
    assert misses[-1] == 0.0
    return table


def bench_a9_safety_factor():
    table = run_a9()
    emit(table)
    # The whole point: safety is a miss-vs-deferral dial, visible in data.
    assert max(table.column("mean deferral s")) > min(
        table.column("mean deferral s")
    )


if __name__ == "__main__":
    emit(run_a9())
