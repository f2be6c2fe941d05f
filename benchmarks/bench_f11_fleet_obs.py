"""F11 — Fleet observability under chaos.

The observability plane's claims, measured at fleet scale: (1) the
merged health document and alert log are *byte-identical* across shard
counts — monitoring adds no layout sensitivity — and (2) the R1
uplink-outage schedule produces alert rollups a fault-free fleet never
shows: the ``uplink-stall`` SLO fires and clears on the merged uplink
stream while the quiet fleet stays all-``ok`` with an empty log.  The
table reports alert counts, zone health tallies, and the monitoring
overhead (monitored vs unmonitored wall time on the same spec).
"""

from repro.fleet.sharded import ShardedFleetSpec, run_sharded
from repro.fleet.topology import FleetTopology
from repro.metrics import Table

from _common import (
    SHORT,
    MetricSpec,
    emit,
    register_bench,
    timed_rows,
    write_bench_summary,
)

N_ZONES = 4 if SHORT else 16
UES_PER_ZONE = 2 if SHORT else 16
JOBS_PER_UE = 1 if SHORT else 2
SEED = 1111


def build_spec(chaos: str, monitor: bool = True) -> ShardedFleetSpec:
    topology = FleetTopology.uniform(
        n_zones=N_ZONES,
        ues_per_zone=UES_PER_ZONE,
        connectivity=["4g", "wifi"],
        jobs_per_ue=JOBS_PER_UE,
        couple="pairs",
        seed=SEED,
    )
    return ShardedFleetSpec(
        topology=topology,
        window_s=600.0,
        slack_s=1200.0,
        monitor=monitor,
        chaos=chaos,
    )


def _zone_tally(health: dict) -> dict:
    tally = {"ok": 0, "degraded": 0, "critical": 0}
    for zone in health["zones"].values():
        tally[zone["status"]] += 1
    return tally


@register_bench(
    "F11",
    metrics=(
        MetricSpec("byte_identical", kind="flag"),
        MetricSpec("monitor_overhead_x", kind="ratio", direction="lower",
                   threshold=None),
    ),
    deterministic=("mode", "zones", "ues", "byte_identical", "alerts",
                   "log_lines", "meter_events"),
)
def run_f11() -> Table:
    # Claim 1: health bytes are shard-layout-independent, chaos included.
    reference = run_sharded(
        build_spec("uplink-outage"), n_shards=1, workers=1
    )
    byte_identical = all(
        run_sharded(
            build_spec("uplink-outage"), n_shards=n, workers=1
        ).health_json() == reference.health_json()
        for n in (2, 4)
    )
    assert byte_identical, "health document diverged across shard counts"
    # The health document now embeds the group-summed runtime meter, so
    # the byte check covers it; pin the event count as a deterministic
    # baseline check too.
    meter_events = int(reference.health["meter"]["events_dispatched"])

    # Claim 2: chaos is visible in the rollups, quiet fleets are quiet.
    results = {
        chaos: run_sharded(build_spec(chaos), n_shards=2)
        for chaos in ("none", "uplink-outage", "uplink-degraded")
    }
    quiet = results["none"].health
    assert quiet["fleet"]["alerts_fired"] == 0, "quiet fleet paged"
    outage_log = results["uplink-outage"].alert_log
    assert "FIRING slo=uplink-stall" in outage_log, "outage did not page"

    table = Table(
        ["chaos", "alerts fired", "log lines", "zones ok", "degraded",
         "critical", "monitored events"],
        title=f"F11: fleet observability — {reference.spec.topology.total_ues}"
              f" UEs, {N_ZONES} zones, paired coupling, 2 shards",
        precision=0,
    )
    for chaos, result in results.items():
        health = result.health
        tally = _zone_tally(health)
        table.add_row(
            chaos, health["fleet"]["alerts_fired"], len(health["log"]),
            tally["ok"], tally["degraded"], tally["critical"],
            health["fleet"]["monitored_events"],
        )

    # Monitoring overhead: same spec with and without the monitor shard.
    cases = {
        "unmonitored": lambda: run_sharded(
            build_spec("none", monitor=False), n_shards=2
        ),
        "monitored": lambda: run_sharded(build_spec("none"), n_shards=2),
    }
    best = timed_rows(cases, repeats=1 if SHORT else 3, warmup=not SHORT)
    overhead = best["monitored"] / best["unmonitored"]

    write_bench_summary("F11", {
        "mode": "short" if SHORT else "full",
        "zones": N_ZONES,
        "ues": reference.spec.topology.total_ues,
        "byte_identical": byte_identical,
        "meter_events": meter_events,
        "alerts": {
            chaos: result.health["fleet"]["alerts_fired"]
            for chaos, result in results.items()
        },
        "log_lines": {
            chaos: len(result.health["log"])
            for chaos, result in results.items()
        },
        "wall_s": {name: best[name] for name in cases},
        "monitor_overhead_x": overhead,
    })
    return table


if __name__ == "__main__":
    emit(run_f11())
