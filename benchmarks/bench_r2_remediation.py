"""R2 — Remediation: closing the loop under the R1 chaos campaigns.

Runs the same seeded workload and the same chaos schedules as R1 for
three operating modes:

* ``naive`` — retries only, no monitoring, no degradation response;
* ``alert-only`` — degradation-capable controller with a live SLO
  engine attached: alerts fire and clear, but nothing *acts* on them;
* ``remediated`` — the full closed loop: the remediation engine maps
  alerts through the policy table to traffic shifts, fallback
  tightening, and hedging escalation, plus goodput-forecast replanning.

Measured per cell: wasted spend (billed failed attempts, from the
monitor's zone ``wasted`` series), deadline misses, cloud spend, alerts
fired, actions applied, and mean alert-to-recovery time (organic clears
only).  The benchmark asserts the paper-level claim: under every
chaotic intensity the remediated run *strictly* reduces wasted spend
versus alert-only, without giving back deadline misses — and the whole
loop is bit-reproducible, action log included.
"""

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.faults import DegradationPolicy, FaultSchedule, inject_faults
from repro.metrics import Table, stable_digest
from repro.monitor.fleet import (
    FLEET_RULES,
    default_fleet_rule_overrides,
    live_fleet_slos,
)
from repro.monitor.monitor import KIND_ZONE, attach_monitor
from repro.monitor.slo import SLOEngine
from repro.remediate import attach_remediation
from repro.serverless import RetryPolicy
from repro.sim.rng import RngStream
from repro.telemetry import attach_tracer

from _common import (
    SHORT,
    MetricSpec,
    emit,
    register_bench,
    sweep_rows,
    write_bench_summary,
)

SEED = 171
INTENSITIES = [0.0, 1.0] if SHORT else [0.0, 0.3, 0.6, 1.0]
MODES = ["naive", "alert-only", "remediated"]
N_JOBS = 12
INPUT_MB = 3.0
RELEASE_SPACING_S = 60.0
DEADLINE_SLACK_S = 500.0
HORIZON_S = 750.0
EVAL_INTERVAL_S = 30.0


def chaos_schedule(intensity: float) -> FaultSchedule:
    """The R1 campaign at one intensity — identical for every mode."""
    return FaultSchedule.chaos(
        intensity, HORIZON_S, RngStream(SEED * 1000 + int(intensity * 100))
    )


def run_cell(mode: str, schedule: FaultSchedule):
    env = Environment.build_custom(
        seed=SEED, uplink_bandwidth=2.0e6, access_latency_s=0.030
    )
    attach_tracer(env)  # all modes record, so measurement is uniform
    if schedule:
        inject_faults(env, schedule)
    degradation = (
        None
        if mode == "naive"
        else DegradationPolicy(
            outage_aware_backoff=True,
            hedge_after_s=None,  # remediation escalates this on burn
            fallback_local=True,
        )
    )
    controller = OffloadController(
        env,
        photo_backup_app(),
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=1.0, multiplier=2.0
        ),
        degradation=degradation,
    )
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)

    engine = None
    remediation = None
    if mode == "remediated":
        plane = attach_remediation(
            env, [controller], eval_interval_s=EVAL_INTERVAL_S
        )
        monitor, engine, remediation = (
            plane.monitor, plane.engine, plane.remediation
        )
    else:
        monitor = attach_monitor(env)
        if mode == "alert-only":
            slos = live_fleet_slos("faas")
            engine = SLOEngine(
                monitor,
                slos,
                rules=FLEET_RULES,
                eval_interval_s=EVAL_INTERVAL_S,
                rule_overrides=default_fleet_rule_overrides(slos),
            )
            engine.attach(env.sim)

    jobs = [
        Job(
            controller.app,
            input_mb=INPUT_MB,
            released_at=RELEASE_SPACING_S * i,
            deadline=RELEASE_SPACING_S * i + DEADLINE_SLACK_S,
            job_id=5000 + i,
        )
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    end = float(env.sim.now)
    if engine is not None:
        engine.finalize(end)

    wasted = monitor.aggregate(
        KIND_ZONE, "faas", "wasted", end, max(end, 1.0)
    ).extras.get("wasted_usd", 0.0)
    missed = sum(1 for r in report.results if not r.met_deadline)
    missed += len(report.failures)
    recoveries = (
        [a.cleared_at - a.fired_at for a in engine.alerts if a.resolved]
        if engine is not None
        else []
    )
    return {
        "miss_rate": missed / N_JOBS,
        "failed_jobs": len(report.failures),
        "cloud_usd": sum(r.cloud_cost_usd for r in report.results),
        "wasted_usd": wasted,
        "alerts_fired": len(engine.alerts) if engine is not None else 0,
        "actions_applied": (
            len(remediation.actions) if remediation is not None else 0
        ),
        "recovery_s": (
            sum(recoveries) / len(recoveries) if recoveries else None
        ),
        "action_log": (
            remediation.action_log() if remediation is not None else ""
        ),
        "digest": stable_digest(env.metrics.snapshot()),
    }


def remediation_cell(config):
    """Sweep cell: one (intensity, mode) pair of the campaign grid."""
    return run_cell(config["mode"], chaos_schedule(config["intensity"]))


@register_bench(
    "R2",
    metrics=(
        # The digest is deterministic per mode (short mode runs fewer
        # intensities, so cross-mode comparisons are skipped).
        MetricSpec("worst_cell_digest", kind="equal", same_mode=True),
    ),
    deterministic=("mode", "seed", "jobs", "intensities", "wasted_usd",
                   "recovery_s", "worst_cell_digest"),
)
def run_r2() -> Table:
    table = Table(
        [
            "intensity",
            "mode",
            "miss %",
            "failed",
            "cloud $",
            "wasted $",
            "alerts",
            "actions",
            "recovery s",
        ],
        title=(
            f"R2: closed-loop remediation — {N_JOBS} jobs, "
            f"{DEADLINE_SLACK_S:.0f}s slack, R1 chaos campaigns over "
            f"{HORIZON_S:.0f}s"
        ),
        precision=3,
    )
    cells = {}
    configs = [
        {"intensity": intensity, "mode": mode}
        for intensity in INTENSITIES
        for mode in MODES
    ]
    for config, cell in zip(configs, sweep_rows(remediation_cell, configs)):
        intensity, mode = config["intensity"], config["mode"]
        cells[(intensity, mode)] = cell
        table.add_row(
            intensity,
            mode,
            100.0 * cell["miss_rate"],
            cell["failed_jobs"],
            f"{cell['cloud_usd']:.2e}",
            f"{cell['wasted_usd']:.2e}",
            cell["alerts_fired"],
            cell["actions_applied"],
            "-" if cell["recovery_s"] is None else f"{cell['recovery_s']:.0f}",
        )

    # Calm weather: the whole remediation plane must cost nothing when
    # nothing burns — identical spend, zero alerts, zero actions.
    calm = INTENSITIES[0]
    for mode in MODES:
        assert cells[(calm, mode)]["wasted_usd"] == 0.0
        assert cells[(calm, mode)]["miss_rate"] == 0.0
    assert cells[(calm, "remediated")]["actions_applied"] == 0
    assert (
        cells[(calm, "remediated")]["cloud_usd"]
        == cells[(calm, "alert-only")]["cloud_usd"]
        == cells[(calm, "naive")]["cloud_usd"]
    )

    # Storms: acting on alerts must strictly reduce wasted spend versus
    # watching them, at every chaotic intensity, without giving back
    # deadline misses — and recovery must not get slower.
    for intensity in INTENSITIES[1:]:
        watched = cells[(intensity, "alert-only")]
        acted = cells[(intensity, "remediated")]
        assert acted["wasted_usd"] < watched["wasted_usd"], (
            f"remediation must strictly cut wasted spend at "
            f"intensity {intensity}"
        )
        assert acted["miss_rate"] <= watched["miss_rate"]
        assert acted["actions_applied"] >= 1
        if watched["recovery_s"] is not None:
            assert acted["recovery_s"] is not None
            assert acted["recovery_s"] <= watched["recovery_s"]

    # Determinism: the stormiest remediated cell, run twice from the
    # same seed, must reproduce its metric registry *and* its action
    # log byte for byte.
    worst = chaos_schedule(INTENSITIES[-1])
    first = run_cell("remediated", worst)
    second = run_cell("remediated", worst.merged_with(FaultSchedule()))
    assert first["digest"] == second["digest"], (
        "remediated chaos run is not reproducible"
    )
    assert first["action_log"] == second["action_log"], (
        "remediation action log is not byte-deterministic"
    )

    write_bench_summary(
        "R2",
        {
            "mode": "short" if SHORT else "full",
            "seed": SEED,
            "jobs": N_JOBS,
            "intensities": INTENSITIES,
            "wasted_usd": {
                f"{intensity}/{mode}": cells[(intensity, mode)]["wasted_usd"]
                for intensity in INTENSITIES
                for mode in MODES
            },
            "recovery_s": {
                f"{intensity}/{mode}": cells[(intensity, mode)]["recovery_s"]
                for intensity in INTENSITIES
                for mode in MODES
                if cells[(intensity, mode)]["recovery_s"] is not None
            },
            "worst_cell_digest": first["digest"],
        },
    )
    return table


if __name__ == "__main__":
    emit(run_r2())
