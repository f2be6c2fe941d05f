"""A10 — Ablation: oracle profiling vs observed-signal demand.

The controller normally cheats twice: :meth:`profile_offline` reads the
app's true demand coefficients from the oracle profiler, and planning
link rates come from the connectivity model itself.  With
``observed_signals=True`` it consumes only what a production platform
exports — measured execution durations (inverted to gigacycles through
the billing-tier duration model) and the monitor's windowed link
goodput — starting from an unprofiled demand model and learning
in-flight.

Expected shape: the oracle mode starts accurate; the observed mode
starts with the unprofiled prior's large demand error and converges as
executions stream in, while completing the same workload.  Both modes
are bit-reproducible.
"""

from __future__ import annotations

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.metrics import Table, stable_digest
from repro.monitor import attach_monitor
from repro.telemetry import attach_tracer

from _common import emit

SEED = 1010
N_JOBS = 10
INPUT_MB = 3.0
RELEASE_SPACING_S = 60.0
DEADLINE_SLACK_S = 3600.0

MODES = ("oracle", "observed")


def run_mode(mode: str) -> dict:
    """One workload under one demand regime; returns its scorecard."""
    observed = mode == "observed"
    env = Environment.build_custom(
        seed=SEED, uplink_bandwidth=2.0e6, access_latency_s=0.030
    )
    monitor = None
    if observed:
        attach_tracer(env)
        monitor = attach_monitor(env)
    controller = OffloadController(
        env,
        photo_backup_app(),
        adaptive=observed,  # replan as monitored history accumulates
        replan_every=3,
        observed_signals=observed,
        monitor=monitor,
    )
    error_unprofiled = controller.demand.mean_relative_error(INPUT_MB)
    controller.profile_offline()  # no-op in observed mode by contract
    error_at_plan = controller.demand.mean_relative_error(INPUT_MB)
    controller.plan(input_mb=INPUT_MB)
    jobs = [
        Job(
            controller.app,
            input_mb=INPUT_MB,
            released_at=RELEASE_SPACING_S * i,
            deadline=RELEASE_SPACING_S * i + DEADLINE_SLACK_S,
            job_id=7000 + i,
        )
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    return {
        "mode": mode,
        "jobs_completed": report.jobs_completed,
        "failures": len(report.failures),
        "deadline_miss_rate": report.deadline_miss_rate,
        "error_unprofiled": error_unprofiled,
        "error_at_plan": error_at_plan,
        "error_after_run": controller.demand.mean_relative_error(INPUT_MB),
        "cloud_usd": report.total_cloud_cost_usd,
        "ue_energy_j": report.total_ue_energy_j,
        "digest": stable_digest(env.metrics.snapshot()),
    }


def run_a10() -> Table:
    table = Table(
        [
            "mode",
            "completed",
            "miss %",
            "demand err at plan %",
            "demand err after run %",
            "cloud $",
            "energy J",
        ],
        title=(
            f"A10: oracle vs observed-signal demand — {N_JOBS} jobs, "
            f"{INPUT_MB} MB inputs, seed {SEED}"
        ),
        precision=3,
    )
    cells = {mode: run_mode(mode) for mode in MODES}
    for mode in MODES:
        cell = cells[mode]
        table.add_row(
            mode,
            cell["jobs_completed"],
            100.0 * cell["deadline_miss_rate"],
            100.0 * cell["error_at_plan"],
            100.0 * cell["error_after_run"],
            f"{cell['cloud_usd']:.2e}",
            cell["ue_energy_j"],
        )

    oracle, observed = cells["oracle"], cells["observed"]
    # Both regimes must finish the whole (slack-rich) workload.
    assert oracle["jobs_completed"] == observed["jobs_completed"] == N_JOBS
    assert oracle["failures"] == observed["failures"] == 0
    # The oracle profiler starts the run already accurate.
    assert oracle["error_at_plan"] < 0.10, oracle["error_at_plan"]
    # The observed mode plans blind (profile_offline is a no-op)…
    assert observed["error_at_plan"] == observed["error_unprofiled"]
    # …and in-flight measurements must cut the demand error sharply.
    assert observed["error_after_run"] < 0.5 * observed["error_at_plan"], (
        observed["error_at_plan"], observed["error_after_run"],
    )
    # Observed-signal inversion is honest, not magic: it should land in
    # the oracle's neighbourhood without being handed the coefficients.
    assert observed["error_after_run"] < 0.25, observed["error_after_run"]
    # Determinism: the monitored, adaptive mode reruns bit-identically.
    assert run_mode("observed")["digest"] == observed["digest"]

    return table


def bench_a10_observed_signals():
    emit(run_a10())


if __name__ == "__main__":
    emit(run_a10())
