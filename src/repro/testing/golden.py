"""The golden-trace scenario: one pinned run, rendered bit-for-bit.

The simulator's determinism contract — same seed, same schedule, same
floats — is what lets every benchmark regenerate identically and every
refactor prove itself harmless.  This module turns that contract into a
regression test: :func:`run_golden_scenario` executes a fixed end-to-end
offloading workload (optionally under a fixed fault schedule) and renders
an ordered trace of everything observable — per-job outcomes, failures,
and the full metric snapshot — with ``repr`` floats, so the smallest
numeric drift flips the digest.

Fixtures live in ``tests/golden/``; regenerate them *intentionally* with
``python tools/regen_golden.py`` after a change that is supposed to alter
behaviour, and let the diff document exactly what moved.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from typing import Dict, List

from repro.apps.catalog import photo_backup_app
from repro.apps.jobs import Job
from repro.core.controller import Environment, OffloadController
from repro.faults import (
    DegradationPolicy,
    FaultKind,
    FaultSchedule,
    FaultWindow,
    inject_faults,
)
from repro.serverless.retry import RetryPolicy

#: Root seed of the golden scenario; never change it casually — every
#: fixture line depends on it.
GOLDEN_SEED = 20260805

#: Bump when the *trace format* changes (not when traced values change).
TRACE_SCHEMA = 1

_N_JOBS = 4
_INPUT_MB = 3.0
_RELEASE_SPACING_S = 90.0
_DEADLINE_SLACK_S = 600.0


def golden_fault_schedule() -> FaultSchedule:
    """The pinned fault campaign of the faulted golden variant.

    One window of every kind the injector supports, placed so each
    actually bites the workload (verified via the trace's counters): the
    zone outage spans the second job's submission, the reclaim and
    straggler windows cover the post-outage cloud executions, the
    degraded uplink squeezes an upload, the downlink outage stalls a
    result download, and the brownout fires while the device is active.
    The run exercises outage waits, hedges, reclamations, straggler
    slowdowns, and local fallbacks; outage *rejections* cannot occur
    because outage-aware backoff keeps attempts out of the dead zone.
    """
    return FaultSchedule(
        [
            FaultWindow(FaultKind.ZONE_OUTAGE, 95.0, 200.0),
            FaultWindow(
                FaultKind.LINK_DEGRADED, 30.0, 120.0, target="uplink", magnitude=0.35
            ),
            FaultWindow(FaultKind.LINK_OUTAGE, 205.0, 216.0, target="downlink"),
            FaultWindow(
                FaultKind.SANDBOX_RECLAIM, 198.0, 240.0, magnitude=0.9
            ),
            FaultWindow(FaultKind.STRAGGLER, 198.0, 320.0, magnitude=3.0),
            FaultWindow(FaultKind.BATTERY_BROWNOUT, 50.0, 51.0, magnitude=0.08),
        ]
    )


def _build_golden_env(seed: int, with_faults: bool, traced: bool):
    """The pinned environment (and optional tracer) every variant shares."""
    env = Environment.build_custom(
        seed=seed,
        uplink_bandwidth=2.0e6,
        access_latency_s=0.030,
        wan_latency_s=0.045,
    )
    tracer = None
    if traced:
        from repro.telemetry import attach_tracer

        # Before fault injection, so window annotations are captured.
        tracer = attach_tracer(env)
    if with_faults:
        inject_faults(env, golden_fault_schedule())
    return env, tracer


def _run_golden_workload(env):
    """Plan and run the pinned workload on ``env``; returns the report."""
    controller = OffloadController(
        env,
        photo_backup_app(),
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=1.0, multiplier=2.0),
        degradation=DegradationPolicy(
            outage_aware_backoff=True,
            hedge_after_s=90.0,
            fallback_local=True,
            fallback_slack_fraction=0.5,
        ),
    )
    controller.profile_offline()
    controller.plan(input_mb=_INPUT_MB)
    # Explicit job ids keep the trace independent of the process-global
    # job counter (i.e. of whatever ran earlier in the same interpreter).
    jobs = [
        Job(
            controller.app,
            input_mb=_INPUT_MB,
            released_at=_RELEASE_SPACING_S * i,
            deadline=_RELEASE_SPACING_S * i + _DEADLINE_SLACK_S,
            job_id=1000 + i,
        )
        for i in range(_N_JOBS)
    ]
    return controller.run_workload(jobs)


def run_golden_scenario(
    with_faults: bool, seed: int = GOLDEN_SEED, traced: bool = False
) -> List[str]:
    """Run the pinned scenario and return its canonical trace lines.

    With ``traced=True`` a telemetry tracer rides along and the rendered
    trace gains ``span``/``attribution``/``labeled`` lines plus the
    digest of the exported Chrome trace — so schema drift in the
    telemetry layer trips the fixture exactly like behavioural drift.
    The simulation itself must be unaffected: the standard lines of a
    traced run stay byte-identical to the untraced variant.
    """
    env, tracer = _build_golden_env(seed, with_faults, traced)
    report = _run_golden_workload(env)

    lines: List[str] = [
        f"schema={TRACE_SCHEMA} seed={seed} faults={with_faults}",
        f"sim.now={env.sim.now!r} events={env.sim.events_processed}",
    ]
    for result in report.results:
        lines.append(
            f"job id={result.job.job_id} started={result.started_at!r} "
            f"finished={result.finished_at!r} energy_j={result.ue_energy_j!r} "
            f"cost_usd={result.cloud_cost_usd!r} met={result.met_deadline}"
        )
    for failure in sorted(report.failures, key=lambda f: f.job.job_id):
        lines.append(
            f"failure id={failure.job.job_id} at={failure.failed_at!r} "
            f"error={type(failure.error).__name__}"
        )
    snapshot = env.metrics.snapshot()
    for key in sorted(snapshot):
        lines.append(f"metric {key}={snapshot[key]!r}")
    if tracer is not None:
        lines.extend(_telemetry_lines(tracer))
    # The harness owns this world: free it (pending hedge-delay races
    # included) now that its lines are rendered.
    env.sim.close()
    return lines


def _telemetry_lines(tracer) -> List[str]:
    """Canonical lines for the telemetry side of a traced golden run."""
    from repro.telemetry import build_report, dumps_chrome_trace

    payload = dumps_chrome_trace(tracer, metadata={"scenario": "golden"})
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    lines = [f"trace spans={len(tracer)} chrome_digest={digest}"]
    for span in tracer.spans:
        lines.append(
            f"span id={span.span_id} parent={span.parent_id} "
            f"cat={span.category} name={span.name} "
            f"start={span.start!r} end={span.end!r}"
        )
    report = build_report(tracer)
    for job in report.jobs:
        phases = " ".join(
            f"{phase}={job.phase_seconds[phase]!r}"
            for phase in sorted(job.phase_seconds)
        )
        lines.append(
            f"attribution job={job.job_id} makespan={job.makespan!r} "
            f"dominant={job.dominant_phase} {phases}"
        )
    labeled = tracer.metrics.snapshot()
    for key in sorted(labeled):
        lines.append(f"labeled {key}={labeled[key]!r}")
    return lines


def trace_digest(lines: List[str]) -> str:
    """SHA-256 over the joined trace lines."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def golden_fleet_spec(couple: str, remediate: bool):
    """The pinned fleet of the fleet fixtures.

    The CI fleet smokes' configuration (4 zones x 2 UEs, 600 s release
    window, 1200 s slack, ``uplink-outage`` chaos, every other knob at
    its ``repro fleet`` default), monitored, optionally remediated.
    """
    from repro.fleet import FleetTopology, ShardedFleetSpec

    return ShardedFleetSpec(
        topology=FleetTopology.uniform(
            n_zones=4, ues_per_zone=2, couple=couple
        ),
        window_s=600.0,
        slack_s=1200.0,
        monitor=True,
        chaos="uplink-outage",
        remediate=remediate,
    )


def run_golden_fleet(couple: str, remediate: bool) -> Dict[str, str]:
    """The exact text of a pinned fleet run's three artifacts.

    ``merged`` and ``health`` are what ``repro fleet --out`` and
    ``--health-out`` write, ``actions`` what ``--actions-out`` writes
    (empty when not remediated).
    """
    from repro.fleet import run_sharded

    result = run_sharded(golden_fleet_spec(couple, remediate))
    return {
        "merged": result.merged_json(),
        "health": result.health_json(),
        "actions": result.action_log,
    }


#: The offload matrix's shared workload: 30 jobs released 20 s apart
#: (each runs longer than that, so jobs overlap and contend) with 900 s
#: of slack, on seed 3.
OFFLOAD_MATRIX_WORKLOAD = {
    "jobs": 30, "spacing_s": 20.0, "slack_s": 900.0, "seed": 3,
}


def run_offload_matrix() -> Dict[str, str]:
    """Canonical JSON of ``offload_run`` over the pinned matrix.

    One cell per catalog app x connectivity x scheduler, plus one
    ``storage`` cell (photo_backup, 4g, eager) on an environment with an
    object store, so store-staged edges are covered too.  Each result
    drops ``sim_events``: the matrix pins what the offloading system did
    in sim time, not how many kernel events the simulator took to do it.
    """
    from repro.apps.catalog import CATALOG
    from repro.sweep import canonical_json
    from repro.sweep.scenarios import offload_report, offload_run

    def render(result: Dict) -> str:
        result.pop("sim_events")
        return canonical_json(result)

    cells: Dict[str, str] = {}
    for app in sorted(CATALOG):
        for connectivity in ("4g", "wifi", "3g"):
            for scheduler in ("eager", "batcher", "costwindow"):
                config = dict(
                    OFFLOAD_MATRIX_WORKLOAD, app=app,
                    connectivity=connectivity, scheduler=scheduler,
                )
                cells[f"{app}/{connectivity}/{scheduler}"] = render(
                    offload_run(config)
                )
    env = Environment.build(
        seed=OFFLOAD_MATRIX_WORKLOAD["seed"], connectivity="4g",
        with_storage=True,
    )
    cells["photo_backup/4g/eager/storage"] = render(
        offload_report(env, dict(OFFLOAD_MATRIX_WORKLOAD))
    )
    return cells


#: The edge/workflow matrix's workload: 4 jobs of 4 MB released 5 s
#: apart (each runs longer than that, so jobs overlap and contend) with
#: 3600 s of slack, on each of two seeds.
EDGE_WORKFLOW_WORKLOAD = {
    "jobs": 4, "spacing_s": 5.0, "slack_s": 3600.0, "input_mb": 4.0,
    "seeds": [0, 7],
}


def _jobs(app, n: int, spacing: float, slack: float, input_mb: float):
    return [
        Job(app, input_mb=input_mb, released_at=spacing * i,
            deadline=spacing * i + slack, job_id=2000 + i)
        for i in range(n)
    ]


def _render_report(report, edge_env=None, **extra) -> str:
    """Canonical JSON of every job result field and every failure of a
    workload, by job id, plus ``extra`` and, given ``edge_env``, its edge
    node's execution records and utilisation."""
    from repro.sweep import canonical_json

    if edge_env is not None:
        node = edge_env.edge
        extra["edge_executions"] = sorted(astuple(e) for e in node.executions)
        extra["edge_utilisation"] = node.utilisation()
    results = [
        dict(r._asdict(), job=[r.job.job_id, r.job.released_at])
        for r in sorted(report.results, key=lambda r: r.job.job_id)
    ]
    failures = [
        [f.job.job_id, f.failed_at, type(f.error).__name__]
        for f in sorted(report.failures, key=lambda f: f.job.job_id)
    ]
    return canonical_json(dict(extra, results=results, failures=failures))


def run_edge_workflow_matrix() -> Dict[str, str]:
    """Canonical JSON of the edge and workflow executors' pinned runs.

    * ``edge/<app>/<partition>/<seed>``: ``EdgeJobRunner`` on every
      catalog app under the ``full``, ``local`` and ``alternate`` (every
      other offloadable component) partitions, on
      :data:`EDGE_WORKFLOW_WORKLOAD`.
    * ``workflow/<app>/<partition>/<seed>``: ``WorkflowOffloadRunner`` on
      the same jobs, under each of those partitions and ``prefix`` (the
      first half of the offloadable components) that is phase-shaped.
    * ``f5/edge`` and ``f5/cloud``: benchmark F5's two executors at its
      smallest sweep point (3 jobs in 6 h, seed 88); ``a6/<app>/...``:
      benchmark A6's ``run_pair`` for both its apps at 8 MB.

    Only sim-time values are pinned, never event counts.
    """
    from repro.apps.catalog import CATALOG
    from repro.baselines import EdgeEnvironment, EdgeJobRunner
    from repro.core.partitioning import FixedPartitioner, Partition
    from repro.core.workflow_runner import (
        WorkflowOffloadRunner,
        is_phase_shaped,
    )

    w = EDGE_WORKFLOW_WORKLOAD
    cells: Dict[str, str] = {}
    for name, factory in sorted(CATALOG.items()):
        names = factory().offloadable_names()
        for label, cloud in (
            ("full", names), ("local", []), ("alternate", names[::2]),
            ("prefix", names[: len(names) // 2]),
        ):
            partition = Partition(name, frozenset(cloud))
            for seed in w["seeds"]:
                key = f"{name}/{label}/{seed}"
                app = factory()
                jobs = _jobs(app, w["jobs"], w["spacing_s"], w["slack_s"],
                             w["input_mb"])
                if label != "prefix":
                    env = EdgeEnvironment.build(seed=seed)
                    report = EdgeJobRunner(env, app, partition).run_workload(jobs)
                    cells[f"edge/{key}"] = _render_report(report, env)
                if is_phase_shaped(app, partition):
                    runner = WorkflowOffloadRunner(
                        Environment.build(seed=seed), app, partition
                    )
                    cells[f"workflow/{key}"] = _render_report(
                        runner.run_workload(jobs)
                    )

    horizon = 6 * 3600.0
    app = CATALOG["nightly_analytics"]()
    env = EdgeEnvironment.build(seed=88, connectivity="4g")
    report = EdgeJobRunner(env, app).run_workload(
        _jobs(app, 3, horizon / 3, horizon, 6.0)
    )
    if env.sim.now < horizon:
        env.sim.run(until=horizon)  # run out the billing horizon
    cells["f5/edge"] = _render_report(
        report, env, provisioned_cost_usd=env.edge.provisioned_cost()
    )
    controller = OffloadController(
        Environment.build(seed=88, connectivity="4g"),
        CATALOG["nightly_analytics"](),
    )
    controller.profile_offline()
    controller.plan(input_mb=6.0)
    cells["f5/cloud"] = _render_report(controller.run_workload(
        _jobs(controller.app, 3, horizon / 3, horizon, 6.0)
    ))

    for name in ("nightly_analytics", "ml_training"):
        partition = Partition.full_offload(CATALOG[name]())
        controller = OffloadController(
            Environment.build(seed=151, execution_noise_sigma=0.0),
            CATALOG[name](), partitioner=FixedPartitioner(partition),
        )
        controller.profile_offline()
        controller.plan(input_mb=8.0)
        runner = WorkflowOffloadRunner(
            Environment.build(seed=151, execution_noise_sigma=0.0),
            CATALOG[name](), partition,
            memory_plan={n: d.memory_mb for n, d in controller.allocation.items()},
        )
        for kind, executor in (("controller", controller), ("workflow", runner)):
            cells[f"a6/{name}/{kind}"] = _render_report(
                executor.run_workload(_jobs(executor.app, 1, 0.0, 36000.0, 8.0))
            )
    return cells


def monitoring_chaos_schedule() -> FaultSchedule:
    """The R1-style chaos campaign of the *monitored* scenario.

    Every golden window plus an uplink outage placed mid-upload of the
    second job, so a transfer demonstrably stalls across the dead zone
    — the signal the link-outage SLO must catch.  (The golden schedule
    itself stays pinned; the fixtures depend on it.)
    """
    windows = list(golden_fault_schedule().windows)
    windows.append(
        FaultWindow(FaultKind.LINK_OUTAGE, 92.0, 140.0, target="uplink")
    )
    return FaultSchedule(windows)


def golden_monitoring_slos():
    """The pinned SLO set of the monitored golden scenario.

    Thresholds are tuned against the pinned workload so the fault-free
    run never alerts while the chaos run trips the link-outage detector
    (an upload stalled across the uplink ``LINK_OUTAGE`` window) and
    the cold-start-spike detector (sandboxes destroyed by the
    ``SANDBOX_RECLAIM`` window) — see ``tests/test_monitor.py``.
    """
    from repro.monitor import (
        AvailabilitySLO,
        ColdStartSLO,
        CostSLO,
        LatencySLO,
    )
    from repro.monitor.monitor import KIND_LINK

    return [
        AvailabilitySLO("zone-availability", objective=0.95),
        LatencySLO(
            "link-outage",
            KIND_LINK,
            "uplink",
            threshold_s=10.0,
            objective=0.5,
            signal="throughput",
        ),
        ColdStartSLO("cold-start-spike", objective=0.7),
        CostSLO("cost-budget", usd_per_hour=1.0),
    ]


def golden_monitoring_rules():
    """Burn-rate rules sized to the pinned workload's event rates.

    The golden run emits a handful of events per minute, so the stock
    SRE windows (meant for request floods) would never clear their
    ``min_events`` gates; these keep the same two-window shape at the
    scenario's scale.
    """
    from repro.monitor import BurnRateRule

    return (
        BurnRateRule("fast", short_s=60.0, long_s=300.0, factor=2.0,
                     min_events=6, severity="page"),
        BurnRateRule("slow", short_s=300.0, long_s=1800.0, factor=1.2,
                     min_events=12, severity="ticket"),
    )


def golden_monitoring_rule_overrides():
    """Per-SLO rule overrides for the monitored golden scenario.

    Link transfers arrive once per job, so the shared ``min_events``
    gates would mask even a total uplink outage; the link SLO gets a
    sparse-series rule pair instead.
    """
    from repro.monitor import BurnRateRule

    return {
        "link-outage": (
            BurnRateRule("outage", short_s=120.0, long_s=600.0, factor=1.0,
                         min_events=1, severity="page"),
        ),
    }


def run_monitored_scenario(with_faults: bool, seed: int = GOLDEN_SEED):
    """The golden scenario with the monitoring plane riding along.

    Returns a dict with the workload summary, the canonical alert log,
    the engine's final report, and the sorted names of SLOs that fired —
    everything the determinism and alerting tests assert on.  The
    monitor is a pure observer, so the simulation is byte-identical to
    the traced golden variant.
    """
    from repro.monitor import attach_monitoring

    env, tracer = _build_golden_env(seed, with_faults=False, traced=True)
    if with_faults:
        inject_faults(env, monitoring_chaos_schedule())
    plane = attach_monitoring(
        env,
        golden_monitoring_slos(),
        rules=golden_monitoring_rules(),
        eval_interval_s=30.0,
        rule_overrides=golden_monitoring_rule_overrides(),
    )
    report = _run_golden_workload(env)
    engine = plane.engine
    engine.evaluate(env.sim.now)  # final sweep so short-lived tails clear
    return {
        "seed": seed,
        "with_faults": with_faults,
        "jobs_completed": report.jobs_completed,
        "failures": len(report.failures),
        "sim_end_s": env.sim.now,
        "alert_log": engine.alert_log(),
        "fired_slos": sorted({alert.slo for alert in engine.alerts}),
        "health": engine.health(env.sim.now),
        "report": engine.report(env.sim.now),
        "plane": plane,
        "tracer": tracer,
    }


__all__ = [
    "EDGE_WORKFLOW_WORKLOAD",
    "GOLDEN_SEED",
    "OFFLOAD_MATRIX_WORKLOAD",
    "TRACE_SCHEMA",
    "golden_fault_schedule",
    "golden_fleet_spec",
    "golden_monitoring_rule_overrides",
    "golden_monitoring_rules",
    "golden_monitoring_slos",
    "monitoring_chaos_schedule",
    "run_edge_workflow_matrix",
    "run_golden_fleet",
    "run_golden_scenario",
    "run_monitored_scenario",
    "run_offload_matrix",
    "trace_digest",
]
