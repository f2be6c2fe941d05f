"""F10 — Sharded fleet scaling.

The sharded fleet runner's two claims, measured together: (1) the merged
report is *byte-identical* for any shard count — partitioning is free of
semantic drift — and (2) fanning the shards over worker processes scales
UEs-simulated-per-wall-second toward the million-UE regime.  The byte
check is the hard gate (any machine can verify it); the scaling curve is
meaningful only on multi-core hosts, so the ≥3x assertion arms itself
only when ``os.cpu_count() >= 4`` and the bench runs in full mode
(``repro bench compare --bench F10`` applies the same rule to the
document).  CI runs the suite in short mode, so that assertion and its
gate run only on a local full ``repro bench run``.
"""

import os

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

#: Uncoupled topology (the exact-merge regime): shards share nothing, so
#: scaling is embarrassingly parallel and the merge must be byte-stable.
N_ZONES = 4 if SHORT else 32
UES_PER_ZONE = 3 if SHORT else 32
JOBS_PER_UE = 1 if SHORT else 4
WORKER_COUNTS = [1, 2, 4]
SEED = 1010


def build_spec() -> ShardedFleetSpec:
    topology = FleetTopology.uniform(
        n_zones=N_ZONES,
        ues_per_zone=UES_PER_ZONE,
        connectivity=["4g", "wifi"],
        jobs_per_ue=JOBS_PER_UE,
        couple="none",
        seed=SEED,
    )
    return ShardedFleetSpec(topology=topology, window_s=7200.0)


@register_bench(
    "F10",
    metrics=(
        MetricSpec("byte_identical", kind="flag"),
        MetricSpec("speedup_4w", kind="min", threshold=3.0,
                   gate={"cores_min": 4, "mode": "full"}),
    ),
    deterministic=("mode", "zones", "ues", "jobs", "byte_identical",
                   "meter_events"),
)
def run_f10() -> Table:
    spec = build_spec()
    total_ues = spec.topology.total_ues

    # Claim 1: byte identity across shard counts (single worker, so the
    # comparison isolates partitioning from process scheduling).
    reference_result = run_sharded(spec, n_shards=1, workers=1)
    reference = reference_result.merged_json()
    byte_identical = all(
        run_sharded(spec, n_shards=n, workers=1).merged_json() == reference
        for n in (2, 4)
    )
    assert byte_identical, "merged report diverged across shard counts"
    # The merged document embeds the group-summed runtime meter, so the
    # byte check above already proves the meter snapshot is identical
    # across shard layouts; surface its event count as a deterministic
    # check the baseline comparison can pin exactly.
    meter_events = int(
        reference_result.document["meter"]["events_dispatched"]
    )

    # Claim 2: shard fan-out scales throughput with worker processes.
    cases = {
        workers: (lambda w=workers: run_sharded(spec, n_shards=4, workers=w))
        for workers in WORKER_COUNTS
    }
    best = timed_rows(cases, repeats=1 if SHORT else 3, warmup=not SHORT)

    table = Table(
        ["workers", "wall s", "UEs / wall s", "speedup vs 1w"],
        title=f"F10: sharded fleet scaling — {total_ues} UEs, "
              f"{spec.topology.total_jobs} jobs, 4 shards, uncoupled",
        precision=3,
    )
    base = best[1]
    for workers in WORKER_COUNTS:
        wall = best[workers]
        table.add_row(workers, wall, total_ues / wall, base / wall)

    cores = os.cpu_count() or 1
    speedup_4w = base / best[4]
    write_bench_summary("F10", {
        "mode": "short" if SHORT else "full",
        "cores": cores,
        "zones": N_ZONES,
        "ues": total_ues,
        "jobs": spec.topology.total_jobs,
        "byte_identical": byte_identical,
        "meter_events": meter_events,
        "wall_s": {str(w): best[w] for w in WORKER_COUNTS},
        "ues_per_wall_s": {str(w): total_ues / best[w] for w in WORKER_COUNTS},
        "speedup_4w": speedup_4w,
    })
    if cores >= 4 and not SHORT:
        assert speedup_4w >= 3.0, (
            f"4-worker speedup {speedup_4w:.2f}x < 3x on a {cores}-core host"
        )
    return table


if __name__ == "__main__":
    emit(run_f10())
