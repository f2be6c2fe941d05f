"""The three E1 workloads.

Each workload is built from a seed (the only input the benchmark varies)
and runs one repetition per :meth:`run` call, returning an
:class:`Outcome`: the job accounting the correctness checks need, a
digest of every simulated result, and the plain simulated values the
benchmark prints next to it.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.fleet import FleetTopology, ShardedFleetSpec, run_sharded
from repro.sweep import canonical_json
from repro.sweep.scenarios import offload_run

#: Connectivity mix of every fleet zone (devices cycle through it).
FLEET_CONNECTIVITY = ("4g", "wifi", "3g")


def _digest(*texts: str) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


@dataclass
class Outcome:
    """What one repetition produced, as far as the benchmark checks it."""

    submitted: int
    completed: int
    failed: int
    sim_digest: str
    values: Dict[str, Any]
    merged_text: Optional[str] = field(default=None, repr=False)


class Offload:
    """One UE running ``offload_run``: kernel and process bodies dominate."""

    name = "offload"
    workers = 1
    jobs = 400

    def __init__(self, seed: int) -> None:
        self.config = {
            "app": "photo_backup",
            "connectivity": "4g",
            "scheduler": "eager",
            "jobs": self.jobs,
            "spacing_s": 60.0,
            "seed": seed,
        }

    def run(self) -> Outcome:
        result = offload_run(dict(self.config))
        return Outcome(
            submitted=self.jobs,
            completed=result["jobs_completed"],
            failed=result["failures"],
            sim_digest=_digest(canonical_json(result)),
            values={
                "sim_events": result["sim_events"],
                "deadline_miss_rate": result["deadline_miss_rate"],
                "cloud_cost_usd": result["cloud_cost_usd"],
                "ue_energy_j": result["ue_energy_j"],
                "cold_start_frac": result["cold_start_fraction"],
                "merge_bytes": 0,
                "actions": 0,
            },
        )


class Fleet:
    """A 4-zone sharded fleet run through ``run_sharded``."""

    zones = 4
    shards = 4
    jobs_per_ue = 2

    def __init__(
        self, seed: int, ues_per_zone: int, monitored: bool, workers: int
    ) -> None:
        self.workers = workers
        self.spec = ShardedFleetSpec(
            topology=FleetTopology.uniform(
                self.zones,
                ues_per_zone,
                connectivity=FLEET_CONNECTIVITY,
                jobs_per_ue=self.jobs_per_ue,
                seed=seed,
            ),
            monitor=monitored,
            chaos="uplink-outage" if monitored else "none",
            remediate=monitored,
        )
        self.jobs = self.spec.topology.total_jobs

    def run(self) -> Outcome:
        return self._outcome(
            run_sharded(self.spec, n_shards=self.shards, workers=self.workers)
        )

    def reference(self) -> str:
        """Merged bytes of the same fleet as one shard on one worker."""
        return run_sharded(self.spec, n_shards=1, workers=1).merged_json()

    def _outcome(self, result: Any) -> Outcome:
        merged = result.merged_json()
        health = result.health_json() if self.spec.monitor else ""
        agg = result.aggregates
        return Outcome(
            submitted=agg["jobs_submitted"],
            completed=agg["jobs_completed"],
            failed=agg["failures"],
            sim_digest=_digest(merged, health),
            values={
                "sim_events": agg["sim_events"],
                "deadline_miss_rate": agg["deadline_miss_rate"],
                "cloud_cost_usd": agg["total_cloud_cost_usd"],
                "ue_energy_j": agg["total_ue_energy_j"],
                "cold_start_frac": agg["cold_start_fraction"],
                "merge_bytes": result.meter.merge_bytes,
                "actions": len(result.health.get("actions", ()))
                if result.health is not None
                else 0,
                "meter_plan_wall_s": result.meter.plan_wall_s,
                "meter_kernel_flush_wall_s": result.meter.kernel_flush_wall_s,
            },
            merged_text=merged,
        )


def fleet_remediated(seed: int) -> Fleet:
    return Fleet(seed, ues_per_zone=25, monitored=True, workers=1)


def fleet_fanout(seed: int) -> Fleet:
    return Fleet(seed, ues_per_zone=50, monitored=False, workers=2)


#: Workload name -> factory taking the seed.
WORKLOADS = {
    "offload": Offload,
    "fleet_remediated": fleet_remediated,
    "fleet_fanout": fleet_fanout,
}
