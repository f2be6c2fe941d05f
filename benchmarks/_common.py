"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the evaluation plan
in DESIGN.md.  The output convention: each bench prints its table to
stdout (captured into EXPERIMENTS.md) and asserts the qualitative shape
the experiment is meant to demonstrate, so a regression in any mechanism
fails the harness loudly rather than silently producing a different
conclusion.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.controller import Environment
from repro.device.ue import DeviceSpec, UserEquipment
from repro.metrics import MetricRegistry, Table
from repro.network.link import Link, NetworkPath
# Re-exported so every bench module registers itself through the one
# flat import it already has (`from _common import ...`).
from repro.perf.bench import MetricSpec, record_summary, register_bench
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.sim import Simulator
from repro.sim.rng import SeedSequenceRegistry

#: Short mode: every registered bench shrinks its op counts.  Any value
#: of ``REPRO_BENCH_SHORT`` other than empty or ``"0"`` turns it on; it
#: is read once, at import, so ``repro bench run`` sets the variable
#: both ways before it loads the registry.
SHORT = os.environ.get("REPRO_BENCH_SHORT", "") not in ("", "0")


def build_env_with_uplink(
    uplink_bps: float,
    seed: int = 0,
    downlink_bps: Optional[float] = None,
    access_latency_s: float = 0.025,
    wan_latency_s: float = 0.040,
    device: Optional[DeviceSpec] = None,
    platform_config: Optional[PlatformConfig] = None,
) -> Environment:
    """An :class:`Environment` with an explicit uplink rate (bytes/s).

    The connectivity presets quantise bandwidth to named technologies;
    the figure sweeps need a continuous axis instead.
    """
    if downlink_bps is None:
        downlink_bps = uplink_bps * 4
    sim = Simulator()
    rng = SeedSequenceRegistry(seed)
    metrics = MetricRegistry()

    def path(rate: float, direction: str) -> NetworkPath:
        access = Link(
            sim,
            bandwidth=rate,
            latency_s=access_latency_s,
            per_request_overhead_bytes=1500.0,
            name=f"sweep.access.{direction}",
            metrics=metrics,
        )
        wan = Link(
            sim,
            bandwidth=rate * 4,
            latency_s=wan_latency_s,
            name=f"sweep.wan.{direction}",
            metrics=metrics,
        )
        return NetworkPath(sim, [access, wan], name=f"sweep.{direction}")

    return Environment(
        sim=sim,
        ue=UserEquipment(sim, device, metrics=metrics),
        platform=ServerlessPlatform(sim, platform_config, metrics=metrics),
        uplink=path(uplink_bps, "up"),
        downlink=path(downlink_bps, "down"),
        rng=rng,
        metrics=metrics,
    )


def emit(table: Table) -> None:
    """Print a benchmark table with a blank-line frame.

    pytest captures this output; ``-s`` (or the EXPERIMENTS.md harness)
    shows it.
    """
    print()
    print(table.render())
    print()


def enable_tracing(env: Environment):
    """Attach a :class:`~repro.telemetry.Tracer` to ``env`` and return it.

    Benchmarks that want phase attribution call this right after building
    the environment (before planning, so the plan span is captured).
    """
    from repro.telemetry import attach_tracer

    return attach_tracer(env)


def emit_phase_attribution(tracer) -> None:
    """Print the per-phase totals of a traced benchmark run."""
    from repro.telemetry import build_report

    print()
    print(build_report(tracer).render())
    print()


def sweep_rows(cell, configs, *, workers=None, cache_dir=None):
    """Run a benchmark's scenario grid through :mod:`repro.sweep`.

    ``cell`` is a top-level function taking one config dict and returning
    a JSON dict; ``configs`` is the grid in presentation order.  Results
    come back in that same order (the sweep itself merges by canonical
    config key, so parallel execution cannot reorder anything).

    Workers default to the ``REPRO_BENCH_WORKERS`` environment variable
    (``1`` = in-process, the deterministic-wall-clock default for CI);
    export e.g. ``REPRO_BENCH_WORKERS=4`` to fan the grid out.
    """
    from repro.sweep import SweepRunner, SweepSpec

    if workers is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    spec = SweepSpec(scenario=cell, points=list(configs))
    result = SweepRunner(spec, workers=workers, cache_dir=cache_dir).run()
    return result.results_for(configs)


def timed_rows(cases, *, repeats=5, warmup=True):
    """Wall-time a set of benchmark configurations, noise-resistantly.

    ``cases`` is an ordered mapping of ``name -> thunk``.  Each thunk is
    either timed around its full call (monotonic clock) or, when it
    returns a float, that value is taken as the sample — letting a bench
    time only its measured region and exclude setup.

    Rounds are interleaved (case A, case B, ..., repeat) so slow drift in
    the host machine hits every configuration equally, and each case is
    scored by its *minimum* over the repeats — the best observed time is
    the least noise-contaminated estimate of the true cost.  Returns
    ``{name: best_seconds}`` in the input order.

    O2 (kernel throughput) and the fleet benches build on this instead
    of hand-rolling timing loops; O1 interleaves its own rounds because
    its asserts need the per-round samples, not just the minima.
    """
    from time import perf_counter

    cases = dict(cases)
    if warmup:
        for thunk in cases.values():  # JIT caches, allocator, branch
            thunk()
    samples = {name: [] for name in cases}
    for _ in range(repeats):
        for name, thunk in cases.items():
            started = perf_counter()
            result = thunk()
            elapsed = perf_counter() - started
            samples[name].append(
                result if isinstance(result, float) else elapsed
            )
    return {name: min(values) for name, values in samples.items()}


def write_bench_summary(name: str, payload: dict) -> None:
    """Record a bench's summary; write ``BENCH_<name>.json`` when asked.

    Every call stashes the payload in the harness registry (so ``repro
    bench run`` collects results without parsing stdout).  When the
    ``REPRO_BENCH_JSON`` environment variable names a directory (created
    if missing), the payload is additionally dumped there as sorted-key
    JSON — stamped with the machine fingerprint so a committed baseline
    records where its numbers came from.  That is how the committed
    ``benchmarks/BENCH_<name>.json`` baselines are refreshed.
    """
    import json
    from pathlib import Path

    record_summary(name, payload)
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return
    from repro.perf.bench import machine_fingerprint

    document = {"bench": name, "fingerprint": machine_fingerprint(), **payload}
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(document, sort_keys=True, indent=2, default=str) + "\n"
    )
    print(f"bench summary written to {path}")


MBPS = 1_000_000 / 8  # bytes/second per megabit/second
