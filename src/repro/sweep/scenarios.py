"""Built-in sweep scenarios.

A scenario is a module-level function taking one JSON config dict and
returning a JSON-serialisable result.  Scenarios must be deterministic in
their config — all randomness seeded from it — because the sweep cache
and the byte-identical merge guarantee both assume that equal configs
mean equal results.

These are referenced from the CLI as e.g.
``repro.sweep.scenarios:offload_run``; projects add their own by pointing
the ``sweep`` subcommand at any importable function of the same shape.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.catalog import CATALOG
from repro.apps.jobs import Job
from repro.core.controller import Environment, OffloadController
from repro.core.partitioning import ObjectiveWeights
from repro.core.scheduler import (
    CostWindowScheduler,
    DeadlineBatcher,
    EagerScheduler,
    Scheduler,
)


def _finite(value: float) -> Any:
    """JSON-safe float: canonical JSON rejects NaN/inf, so map them to
    ``None`` rather than poisoning a whole merged document."""
    return value if math.isfinite(value) else None


def _diurnal_price(t: float) -> float:
    """A generic diurnal congestion price anchored at t=0."""
    return 1.0 + 0.8 * math.sin(2 * math.pi * t / 86_400.0)


#: Scheduler factories by name, each built from the run's ``window_s``:
#: the batcher's window, or the cost-window scheduler's scan resolution.
SCHEDULERS: Dict[str, Callable[[float], Scheduler]] = {
    "eager": lambda window_s: EagerScheduler(),
    "batcher": lambda window_s: DeadlineBatcher(window_s=window_s),
    "costwindow": lambda window_s: CostWindowScheduler(
        _diurnal_price, resolution_s=max(window_s, 60.0)
    ),
}

#: Objective-weight presets by name.
WEIGHTS: Dict[str, Callable[[], ObjectiveWeights]] = {
    "balanced": ObjectiveWeights,
    "interactive": ObjectiveWeights.interactive,
    "non-time-critical": ObjectiveWeights.non_time_critical,
}


class UnknownChoiceError(ValueError):
    """A config names an app, scheduler or weights preset no table has."""


def lookup(table: Dict[str, Any], kind: str, name: str) -> Any:
    """``table[name]``; an unknown name raises :class:`UnknownChoiceError`."""
    if name not in table:
        raise UnknownChoiceError(
            f"unknown {kind} {name!r}; choose from {sorted(table)}"
        )
    return table[name]


def offload_run(config: Dict[str, Any]) -> Dict[str, Any]:
    """One end-to-end controller workload run (the default CLI scenario).

    Config keys (all optional): ``app``, ``seed``, ``connectivity``,
    ``input_mb``, ``jobs``, ``spacing_s``, ``slack_s``, ``scheduler``
    (``eager`` | ``batcher`` | ``costwindow``), ``window_s``, ``weights``
    (``balanced`` | ``interactive`` | ``non-time-critical``).
    """
    env = Environment.build(
        seed=int(config.get("seed", 0)),
        connectivity=config.get("connectivity", "4g"),
    )
    return offload_report(env, config)


def offload_setup(
    env: Environment, config: Dict[str, Any]
) -> Tuple[OffloadController, List[Job]]:
    """A planned controller on ``env`` plus the jobs it is to run.

    Reads every config key of :func:`offload_run` except ``seed`` and
    ``connectivity``, which only shape the environment; callers that
    need a non-standard world (an object store, a tracer) build it
    themselves.  Unknown app, scheduler or weights names raise
    :class:`UnknownChoiceError`.
    """
    app = lookup(CATALOG, "app", config.get("app", "photo_backup"))
    scheduler = lookup(
        SCHEDULERS, "scheduler", config.get("scheduler", "eager")
    )
    weights = lookup(
        WEIGHTS, "weights preset", config.get("weights", "non-time-critical")
    )
    input_mb = float(config.get("input_mb", 4.0))
    spacing_s = float(config.get("spacing_s", 60.0))
    slack_s = float(config.get("slack_s", 3600.0))
    controller = OffloadController(
        env,
        app(),
        scheduler=scheduler(float(config.get("window_s", 300.0))),
        weights=weights(),
    )
    controller.profile_offline()
    controller.plan(input_mb=input_mb)
    jobs = [
        Job(
            controller.app,
            input_mb=input_mb,
            released_at=spacing_s * i,
            deadline=spacing_s * i + slack_s,
        )
        for i in range(int(config.get("jobs", 5)))
    ]
    return controller, jobs


def offload_report(env: Environment, config: Dict[str, Any]) -> Dict[str, Any]:
    """The body of :func:`offload_run` on an already built environment.

    Runs :func:`offload_setup`'s jobs and summarises the run.
    """
    controller, jobs = offload_setup(env, config)
    report = controller.run_workload(jobs)
    assert controller.partition is not None
    return {
        "jobs_completed": report.jobs_completed,
        "failures": len(report.failures),
        "deadline_miss_rate": report.deadline_miss_rate,
        "mean_response_s": _finite(report.mean_response_s),
        "p95_response_s": _finite(report.percentile_response_s(95)),
        "ue_energy_j": report.total_ue_energy_j,
        "cloud_cost_usd": report.total_cloud_cost_usd,
        "cold_start_fraction": env.platform.cold_start_fraction(),
        "cloud_components": sorted(controller.partition.cloud),
        "sim_events": env.sim.events_processed,
        "sim_end_s": env.sim.now,
    }


def monitored_run(config: Dict[str, Any]) -> Dict[str, Any]:
    """The monitored golden scenario as a sweep cell.

    Config keys (all optional): ``faults`` (default true), ``seed``.
    Returns the canonical alert log plus its digest, so a sweep across
    worker counts proves the monitoring plane's byte-identity claim —
    the merged JSON must not depend on scheduling of worker processes.
    """
    import hashlib

    from repro.testing.golden import GOLDEN_SEED, run_monitored_scenario

    result = run_monitored_scenario(
        bool(config.get("faults", True)),
        seed=int(config.get("seed", GOLDEN_SEED)),
    )
    log = result["alert_log"]
    return {
        "faults": result["with_faults"],
        "seed": result["seed"],
        "jobs_completed": result["jobs_completed"],
        "failures": result["failures"],
        "sim_end_s": result["sim_end_s"],
        "fired_slos": result["fired_slos"],
        "alert_log": log,
        "alert_digest": hashlib.sha256(log.encode("utf-8")).hexdigest(),
        "health": result["health"],
    }


def kernel_smoke(config: Dict[str, Any]) -> Dict[str, Any]:
    """A pure-kernel micro-simulation — fast enough for smoke tests.

    Spawns ``processes`` sleepers with staggered timeouts, interrupts
    every ``interrupt_every``-th one, and reports event counts plus a
    delivery log.  Exercises exactly the interrupt path the kernel
    regression suite guards, so a sweep smoke doubles as a kernel check.
    """
    from repro.sim import Interrupt, Simulator

    n_processes = int(config.get("processes", 8))
    interrupt_every = int(config.get("interrupt_every", 3))
    base_delay = float(config.get("base_delay_s", 5.0))
    sim = Simulator()
    deliveries: list[str] = []

    def sleeper(sim, index):
        try:
            yield sim.timeout(base_delay * (index + 1))
            deliveries.append(f"done:{index}")
        except Interrupt:
            deliveries.append(f"interrupt:{index}")
        yield sim.timeout(1.0)
        deliveries.append(f"after:{index}")

    def killer(sim, victims):
        yield sim.timeout(base_delay / 2)
        for victim in victims:
            victim.interrupt("smoke")

    processes = [sim.spawn(sleeper(sim, i), name=f"sleeper.{i}") for i in range(n_processes)]
    victims = [p for i, p in enumerate(processes) if interrupt_every and i % interrupt_every == 0]
    sim.spawn(killer(sim, victims))
    sim.run()
    return {
        "processes": n_processes,
        "interrupted": len(victims),
        "events_processed": sim.events_processed,
        "finished_at": sim.now,
        "deliveries": deliveries,
    }


__all__ = [
    "SCHEDULERS",
    "UnknownChoiceError",
    "WEIGHTS",
    "kernel_smoke",
    "lookup",
    "monitored_run",
    "offload_report",
    "offload_run",
    "offload_setup",
]
