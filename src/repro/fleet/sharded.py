"""Sharded fleet simulation: zones partitioned across worker processes.

The fleet-economics experiments run one kernel on one core; a million-UE
day is billions of events and will never fit one process.  This module
scales the fleet out the way :class:`~repro.sweep.runner.SweepRunner`
scales grids out: partition the work into independent cells, run the
cells anywhere, and merge deterministically so the merged report is
byte-identical for any shard count and any worker count.

**Unit of identity: the zone.**  Every source of per-UE randomness —
device RNG forks, execution noise, profiling draws, UE names, job ids,
release times — is keyed by ``(zone name, local index)`` or by the UE's
global id, never by its position inside a simulator.  A zone therefore
simulates byte-identically no matter which shard or process hosts it.

**Unit of simulation: the coupling group.**  Zones linked in the
:class:`~repro.fleet.topology.FleetTopology` share one simulator and one
serverless platform (shared warm pools — the fleet's key economy);
unlinked zones get their own.  Group composition depends only on the
topology, so *uncoupled* zones produce identical results under any
shard layout.

**Exactness condition.**  The merged report of :func:`run_sharded` is
byte-identical to the single-process reference
(:func:`reference_report`, which drives the ordinary
:meth:`FleetController.run <repro.fleet.fleet.FleetController>` path)
exactly when no topology link crosses a shard boundary.  The default
partitioner keeps coupling groups atomic, so this always holds unless
``split_coupled=True`` is requested.

**Bounded-error mode.**  With ``split_coupled=True`` a link may be
split: its endpoint zones run on separate platforms and lose warm-pool
sharing.  Under the default platform configuration (no binding
concurrency limit, ``failure_probability`` 0, no fault schedules) that
is the *only* divergence — cold starts are not billed, so cloud cost is
preserved exactly, and the divergence is purely timing.  Each shard
records, per function, which sync windows of width
``max(sync_window_s, keep_alive_s)`` saw invocations; at merge time an
invocation is *potentially affected* if the zone across a split link
invoked the same function in the same or an adjacent window (a window
at least ``keep_alive_s`` wide guarantees any warm-sharing opportunity
falls inside the adjacency, making the count conservative).  The
resulting :func:`compute_error_bound` guarantees, versus the reference:

* ``|Δ cold_starts| <= affected_invocations`` — a flip per affected
  invocation at most;
* ``|Δ mean_response_s| <= affected * max_cold_start_s * J / total``
  where ``J`` is the largest job count among the split groups — one
  cold start delays its own and (work-conserving schedulers being
  non-expansive) at most every later completion in its group by the
  cold-start duration;
* ``Δ total_cloud_cost_usd = 0`` — cold starts bill nothing.

UE energy shifts by at most idle power × the same delay; it is reported
but not bounded.  Shrinking ``sync_window_s`` below ``keep_alive_s``
has no effect (the effective window is clamped up); growing it only
loosens the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.jobs import Job
from repro.core.controller import Environment
from repro.device.ue import DeviceSpec, UserEquipment
from repro.faults.injector import inject_faults
from repro.faults.schedule import FaultKind, FaultSchedule, FaultWindow
from repro.fleet.fleet import FleetController, FleetEnvironment, FleetReport
from repro.fleet.topology import (
    FleetTopology,
    ShardPlan,
    Zone,
    derive_seed,
    partition_topology,
)
from repro.metrics import MetricRegistry
from repro.monitor.fleet import (
    FLEET_EVAL_INTERVAL_S,
    FLEET_HEALTH_SCHEMA,
    merge_snapshots,
    replay_fleet_slos,
)
from repro.monitor.monitor import Monitor
from repro.network.profiles import cloud_path, profile as connectivity_profile
from repro.perf.meter import RuntimeMeter
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.sim import Simulator
from repro.sim.rng import SeedSequenceRegistry
from repro.sweep import SweepProgress, SweepRunner, SweepSpec, canonical_json
from repro.telemetry.tracer import Tracer

#: Version tag embedded in every merged document.
SCHEMA = "repro.fleet.sharded/1"

#: Job-id stride: UE ``g``'s ``k``-th job gets id ``g * STRIDE + k``,
#: deterministic and process-independent (the default process-global job
#: counter would leak spawn order across shard layouts).
_JOB_ID_STRIDE = 1 << 20


@dataclass(frozen=True)
class ShardedFleetSpec:
    """Everything one shard needs to simulate its zones.

    The whole spec is JSON-serialisable, so a shard config travels
    through the sweep runner's canonical-JSON cache keys unchanged.
    ``window_s`` spreads job releases across the fleet by *global* UE id
    (shard-layout independent); ``sync_window_s`` only affects the
    bounded-error accounting, never the simulation itself.
    """

    topology: FleetTopology
    app: str = "photo_backup"
    input_mb: float = 2.0
    window_s: float = 3600.0
    slack_s: float = 3600.0
    keep_alive_s: float = 600.0
    sync_window_s: float = 600.0
    monitor: bool = False
    chaos: str = "none"
    remediate: bool = False

    def __post_init__(self) -> None:
        if self.remediate and not self.monitor:
            raise ValueError("remediate=True requires monitor=True")
        if self.input_mb < 0:
            raise ValueError("input_mb must be >= 0")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")
        if self.slack_s < 0:
            raise ValueError("slack_s must be >= 0")
        if self.keep_alive_s < 0:
            raise ValueError("keep_alive_s must be >= 0")
        if self.sync_window_s <= 0:
            raise ValueError("sync_window_s must be > 0")
        if self.chaos not in FLEET_CHAOS:
            raise ValueError(
                f"unknown chaos schedule {self.chaos!r}; "
                f"choose from {sorted(FLEET_CHAOS)}"
            )

    @property
    def effective_sync_window_s(self) -> float:
        """The window actually used for error accounting: clamped to at
        least ``keep_alive_s`` so adjacency covers every warm-sharing
        opportunity (the conservativeness condition)."""
        return max(self.sync_window_s, self.keep_alive_s, 1e-9)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology.to_dict(),
            "app": self.app,
            "input_mb": self.input_mb,
            "window_s": self.window_s,
            "slack_s": self.slack_s,
            "keep_alive_s": self.keep_alive_s,
            "sync_window_s": self.sync_window_s,
            "monitor": self.monitor,
            "chaos": self.chaos,
            "remediate": self.remediate,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ShardedFleetSpec":
        return ShardedFleetSpec(
            topology=FleetTopology.from_dict(data["topology"]),
            app=data.get("app", "photo_backup"),
            input_mb=float(data.get("input_mb", 2.0)),
            window_s=float(data.get("window_s", 3600.0)),
            slack_s=float(data.get("slack_s", 3600.0)),
            keep_alive_s=float(data.get("keep_alive_s", 600.0)),
            sync_window_s=float(data.get("sync_window_s", 600.0)),
            monitor=bool(data.get("monitor", False)),
            chaos=str(data.get("chaos", "none")),
            remediate=bool(data.get("remediate", False)),
        )


# -- chaos schedules --------------------------------------------------------


def _chaos_uplink_outage(spec: "ShardedFleetSpec") -> FaultSchedule:
    """Uplink dead from 20% to 55% of the release window.

    Uploads released inside the window stall until it lifts, so their
    durations blow past the stall threshold — the link-stall latency
    SLO is the detector.  Link-only faults wrap each device's access
    hop and never touch the shared platform, so the schedule is
    identical under every shard layout.
    """
    return FaultSchedule([
        FaultWindow(
            FaultKind.LINK_OUTAGE,
            0.20 * spec.window_s,
            0.55 * spec.window_s,
            target="uplink",
        )
    ])


def _chaos_uplink_degraded(spec: "ShardedFleetSpec") -> FaultSchedule:
    """Uplink at 25% rate from 20% to 70% of the release window."""
    return FaultSchedule([
        FaultWindow(
            FaultKind.LINK_DEGRADED,
            0.20 * spec.window_s,
            0.70 * spec.window_s,
            target="uplink",
            magnitude=0.25,
        )
    ])


#: Named chaos schedules a fleet spec may request.  All are link-only
#: (the access hop is per-device), which keeps the injection independent
#: of how zones are packed into shards.
FLEET_CHAOS: Dict[str, Optional[Callable[["ShardedFleetSpec"], FaultSchedule]]]
FLEET_CHAOS = {
    "none": None,
    "uplink-outage": _chaos_uplink_outage,
    "uplink-degraded": _chaos_uplink_degraded,
}


def fleet_chaos_schedule(spec: "ShardedFleetSpec") -> Optional[FaultSchedule]:
    """The fault schedule for ``spec.chaos`` (``None`` when fault-free)."""
    builder = FLEET_CHAOS[spec.chaos]
    return builder(spec) if builder is not None else None


# -- per-group simulation ---------------------------------------------------


def _monitor_horizon_s(spec: "ShardedFleetSpec") -> float:
    """Series retention for fleet monitors: cover the whole run.

    The stock monitor prunes buckets older than an hour; a fleet run
    lasts ``window_s + slack_s`` plus tail latency, and the offline SLO
    replay needs every bucket, so retention spans the run with an hour
    of margin.
    """
    return spec.window_s + spec.slack_s + 3600.0


def _group_label(names: Sequence[str]) -> str:
    """Canonical entity label for a coupling group's shared platform."""
    return "+".join(names)


def _group_monitor(
    spec: "ShardedFleetSpec", names: Sequence[str], clock: Any
) -> Monitor:
    """One coupling group's monitor: zones sharing a warm pool share
    fate, and spans carry no zone identity, so the group is the finest
    deterministic attribution unit."""
    return Monitor(
        clock, zone=_group_label(names), horizon_s=_monitor_horizon_s(spec)
    )


def _app_factory(name: str):
    from repro.apps.catalog import CATALOG

    if name not in CATALOG:
        raise ValueError(f"unknown app {name!r}; choose from {sorted(CATALOG)}")
    return CATALOG[name]


def _zone_jobs(
    spec: ShardedFleetSpec, zone: Zone, app, base: int, total_ues: int
) -> Dict[int, List[Job]]:
    """Jobs for one zone, keyed by local device index.

    Release times spread the *global* fleet across ``window_s`` (round
    ``k`` occupies window ``k``), so a UE's workload is identical under
    every shard layout.
    """
    jobs: Dict[int, List[Job]] = {}
    for local in range(zone.n_ues):
        g = base + local
        jobs[local] = [
            Job(
                app,
                input_mb=spec.input_mb,
                released_at=spec.window_s * (g + total_ues * k) / total_ues,
                deadline=spec.window_s * (g + total_ues * k) / total_ues
                + spec.slack_s,
                job_id=g * _JOB_ID_STRIDE + k,
            )
            for k in range(zone.jobs_per_ue)
        ]
    return jobs


def _zero_ue_records(
    spec: ShardedFleetSpec, zones: Sequence[Zone]
) -> List[Dict[str, Any]]:
    topology = spec.topology
    records = []
    for zone in zones:
        base = topology.ue_base(zone.name)
        for local in range(zone.n_ues):
            records.append(
                {
                    "ue": base + local,
                    "zone": zone.name,
                    "jobs": 0,
                    "completed": 0,
                    "failures": 0,
                    "misses": 0,
                    "responses_s": [],
                    "energy_j": 0.0,
                    "cost_usd": 0.0,
                }
            )
    return records


def _ue_record(
    global_id: int, zone_name: str, submitted: int, report
) -> Dict[str, Any]:
    return {
        "ue": global_id,
        "zone": zone_name,
        "jobs": submitted,
        "completed": report.jobs_completed,
        "failures": len(report.failures),
        "misses": sum(1 for r in report.results if not r.met_deadline),
        "responses_s": [float(r.response_time) for r in report.results],
        "energy_j": float(report.total_ue_energy_j),
        "cost_usd": float(report.total_cloud_cost_usd),
    }


def _simulate_group(
    spec: ShardedFleetSpec, zone_names: Sequence[str]
) -> Dict[str, Any]:
    """Simulate one coupling group (shared simulator + platform) and
    serialise the outcome as a JSON-safe group record.

    Both the sharded scenario and the single-process reference call this
    helper, so the two paths can only diverge in *which* groups they
    form — exactly the coupling semantics under test.
    """
    topology = spec.topology
    zones = [topology.zone(name) for name in sorted(zone_names)]
    names = [zone.name for zone in zones]
    total_ues = topology.total_ues
    group_jobs = sum(zone.n_ues * zone.jobs_per_ue for zone in zones)

    record: Dict[str, Any] = {
        "zones": names,
        "ues": [],
        "cold_starts": 0,
        "invocations": 0,
        "platform_usd": 0.0,
        "sim_events": 0,
        "sim_end_s": 0.0,
    }
    if topology.links:
        record["windows"] = {}
        record["max_cold_start_s"] = 0.0
    if group_jobs == 0:
        # Nothing will ever run: skip the simulator entirely.  The
        # records are identical to what a run would produce, and the
        # skip decision depends only on the group itself, so every
        # shard layout takes the same path.
        record["ues"] = _zero_ue_records(spec, zones)
        record["meter"] = RuntimeMeter().snapshot()
        if spec.monitor:
            # No simulator and no sim time: nothing reads the clock.
            record["monitor"] = _group_monitor(spec, names, None).to_dict(
                end_s=0.0
            )
        if spec.remediate:
            record["actions"] = []
        return record

    app_factory = _app_factory(spec.app)
    sim = Simulator()
    metrics = MetricRegistry()
    monitor: Optional[Monitor] = None
    if spec.monitor:
        # Subscribed before any span ends, so it sees the whole run.
        # The monitor is the only reader, so the tracer keeps no record.
        sim.tracer = Tracer(sim, record=False)
        monitor = _group_monitor(spec, names, sim)
        sim.tracer.subscribe(monitor)
    chaos = fleet_chaos_schedule(spec)
    platform_registry = SeedSequenceRegistry(
        derive_seed(topology.seed, "platform", *names)
    )
    platform = ServerlessPlatform(
        sim,
        PlatformConfig(keep_alive_s=spec.keep_alive_s),
        metrics=metrics,
        rng=platform_registry.stream("platform"),
    )

    fleets: List[Tuple[Zone, FleetController, Dict[int, List[Job]]]] = []
    for zone in zones:
        if zone.n_ues == 0:
            continue
        zone_registry = SeedSequenceRegistry(
            derive_seed(topology.seed, "zone", zone.name)
        )
        devices = []
        for local in range(zone.n_ues):
            preset = zone.connectivity[local % len(zone.connectivity)]
            prof = connectivity_profile(preset)
            ue_spec = replace(DeviceSpec(), name=f"{zone.name}.ue{local}")
            ue = UserEquipment(sim, ue_spec, metrics=metrics)
            device_env = Environment(
                sim=sim,
                ue=ue,
                platform=platform,
                uplink=cloud_path(sim, prof, uplink=True, metrics=metrics),
                downlink=cloud_path(
                    sim, prof, uplink=False, metrics=metrics
                ),
                rng=zone_registry.fork(f"device{local}"),
                metrics=metrics,
            )
            if chaos is not None:
                # Link-only schedules wrap this device's access hop;
                # the shared platform is untouched, so injection order
                # across zones cannot matter.
                inject_faults(device_env, chaos)
            devices.append(device_env)
        env = FleetEnvironment(sim, platform, devices, zone_registry, metrics)
        fleet = FleetController(env, app_factory())
        fleet.profile_offline()
        if spec.remediate:
            # Remediated fleets run with the degradation responses armed
            # (the knobs the remediation engine escalates).  Hedging
            # stays off until an alert turns it on.
            from repro.faults.policy import DegradationPolicy

            for controller in fleet.controllers:
                controller.degradation = DegradationPolicy()
        fleet.plan(input_mb=spec.input_mb)
        app = fleet.app
        base = topology.ue_base(zone.name)
        fleets.append((zone, fleet, _zone_jobs(spec, zone, app, base, total_ues)))

    plane = None
    if spec.remediate:
        # One live engine + remediation loop per coupling group: the
        # group is the atomic sim unit, so its action log depends only
        # on the group itself — never on the shard layout around it.
        from repro.remediate import attach_remediation

        plane = attach_remediation(
            fleets[0][1].env,  # any zone's: they share the simulator
            [c for _zone, fleet, _jobs in fleets for c in fleet.controllers],
            zone=_group_label(names),
            eval_interval_s=FLEET_EVAL_INTERVAL_S,
            monitor=monitor,
        )

    launched = []
    drivers = []
    for zone, fleet, jobs_by_device in fleets:
        report, zone_drivers = fleet.launch(jobs_by_device)
        launched.append((zone, report))
        drivers.extend(zone_drivers)
    if drivers:
        sim.run(until=sim.all_of(drivers))
    for _zone, report in launched:
        for device_report in report.per_device.values():
            device_report.results.sort(key=lambda r: r.finished_at)

    # Re-key every zone report to global UE ids and fold them through
    # FleetReport.merge — the same arithmetic the unit tests pin down.
    merged = FleetReport.merge(
        FleetReport(
            per_device={
                topology.ue_base(zone.name) + local: device_report
                for local, device_report in report.per_device.items()
            }
        )
        for zone, report in launched
    )
    zone_of = {}
    submitted = {}
    for zone, fleet, jobs_by_device in fleets:
        base = topology.ue_base(zone.name)
        for local, jobs in jobs_by_device.items():
            zone_of[base + local] = zone.name
            submitted[base + local] = len(jobs)
    record["ues"] = [
        _ue_record(g, zone_of[g], submitted[g], merged.per_device[g])
        for g in sorted(merged.per_device)
    ]

    invocations = platform.invocations
    record["cold_starts"] = sum(1 for inv in invocations if inv.cold_start)
    record["invocations"] = len(invocations)
    record["platform_usd"] = float(platform.total_cost)
    record["sim_events"] = sim.events_processed
    record["sim_end_s"] = float(sim.now)
    # The group's meter snapshot is a pure function of the simulated
    # work (lane hits, plans), so it is byte-identical under every
    # shard layout — it rides the record into the merged document.
    record["meter"] = sim.meter.snapshot()
    if monitor is not None:
        # A side channel like ``windows``: rides the shard result, is
        # merged via merge_snapshots, and never enters the merged fleet
        # document itself.
        record["monitor"] = monitor.to_dict(end_s=float(sim.now))
    if plane is not None:
        # Also a side channel: per-group action-log lines, concatenated
        # in group order at merge time.  The live engine finalizes so a
        # straddling alert's terminal CLEARED line is part of the log.
        plane.engine.finalize(float(sim.now))
        record["actions"] = list(plane.remediation.log)

    if topology.links:
        window_s = spec.effective_sync_window_s
        windows: Dict[str, Dict[str, int]] = {}
        for inv in invocations:
            buckets = windows.setdefault(inv.request.function, {})
            key = str(int(inv.submitted_at // window_s))
            buckets[key] = buckets.get(key, 0) + 1
        record["windows"] = windows
        record["max_cold_start_s"] = float(
            max(
                (
                    platform.config.cold_start_duration(platform.spec(name))
                    for name in platform.deployed_functions()
                ),
                default=0.0,
            )
        )
    # The record is complete: free the group's world now, before the
    # next group runs, instead of at some later gc pass.
    sim.close()
    return record


def _induced_groups(
    topology: FleetTopology, zone_names: Sequence[str]
) -> List[Tuple[str, ...]]:
    """Coupling components restricted to one shard's zones.

    With atomic partitioning a shard holds whole components, so this
    reproduces them exactly; in split mode, co-sharded linked zones
    still share a simulator while the severed half couples only through
    the error bound.
    """
    members = set(zone_names)
    adjacency = topology.neighbours()
    groups: List[Tuple[str, ...]] = []
    seen: set = set()
    for name in sorted(members):
        if name in seen:
            continue
        component = []
        frontier = [name]
        seen.add(name)
        while frontier:
            current = frontier.pop(0)
            component.append(current)
            for peer in adjacency[current]:
                if peer in members and peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        groups.append(tuple(sorted(component)))
    return sorted(groups)


def shard_run(config: Dict[str, Any]) -> Dict[str, Any]:
    """Sweep scenario: simulate one shard's zones, group by group.

    Config keys: ``spec`` (a :meth:`ShardedFleetSpec.to_dict`),
    ``zones`` (the shard's zone names), ``shard`` (index, for config
    uniqueness only — it never reaches the merged document).
    """
    spec = ShardedFleetSpec.from_dict(config["spec"])
    zone_names = list(config.get("zones", ()))
    groups = _induced_groups(spec.topology, zone_names)
    return {
        "shard": int(config.get("shard", 0)),
        "groups": [_simulate_group(spec, group) for group in groups],
    }


# -- deterministic merge ----------------------------------------------------


def merge_group_records(
    spec: ShardedFleetSpec, group_records: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Key-ordered merge of group records into the canonical document.

    Ordered by group key (the sorted zone tuple) and, inside, by global
    UE id; aggregates are folded in that same order.  Shard layout,
    worker count, and the error-accounting side channels (``windows``,
    ``max_cold_start_s``) are deliberately excluded, so the document is
    byte-stable across shard and worker counts.
    """
    topology = spec.topology
    ordered = sorted(group_records, key=lambda g: tuple(g["zones"]))
    covered = [name for group in ordered for name in group["zones"]]
    expected = [zone.name for zone in topology.zones]
    if sorted(covered) != expected:
        raise ValueError(
            f"group records cover zones {sorted(covered)}, expected {expected}"
        )

    groups_out = []
    seen_ues: set = set()
    totals = {
        "jobs": 0,
        "completed": 0,
        "failures": 0,
        "misses": 0,
        "cold_starts": 0,
        "invocations": 0,
        "sim_events": 0,
    }
    response_sum = 0.0
    response_count = 0
    energy = 0.0
    cost = 0.0
    platform_usd = 0.0
    meter = RuntimeMeter()
    for group in ordered:
        ues = sorted(group["ues"], key=lambda u: u["ue"])
        for ue in ues:
            if ue["ue"] in seen_ues:
                raise ValueError(f"UE {ue['ue']} reported twice")
            seen_ues.add(ue["ue"])
            totals["jobs"] += ue["jobs"]
            totals["completed"] += ue["completed"]
            totals["failures"] += ue["failures"]
            totals["misses"] += ue["misses"]
            response_sum += sum(ue["responses_s"])
            response_count += len(ue["responses_s"])
            energy += ue["energy_j"]
            cost += ue["cost_usd"]
        totals["cold_starts"] += group["cold_starts"]
        totals["invocations"] += group["invocations"]
        totals["sim_events"] += group["sim_events"]
        platform_usd += group["platform_usd"]
        meter.absorb_snapshot(group.get("meter", {}))
        groups_out.append(
            {
                "zones": list(group["zones"]),
                "ues": ues,
                "cold_starts": group["cold_starts"],
                "invocations": group["invocations"],
                "platform_usd": group["platform_usd"],
                "sim_events": group["sim_events"],
                "sim_end_s": group["sim_end_s"],
                "meter": dict(group.get("meter", {})),
            }
        )
    if len(seen_ues) != topology.total_ues:
        raise ValueError(
            f"{len(seen_ues)} UEs reported, topology has {topology.total_ues}"
        )

    finished = totals["completed"] + totals["failures"]
    aggregates = {
        "jobs_submitted": totals["jobs"],
        "jobs_completed": totals["completed"],
        "failures": totals["failures"],
        "deadline_miss_rate": (
            (totals["misses"] + totals["failures"]) / finished
            if finished
            else 0.0
        ),
        "mean_response_s": (
            response_sum / response_count if response_count else 0.0
        ),
        "total_ue_energy_j": energy,
        "total_cloud_cost_usd": cost,
        "platform_usd": platform_usd,
        "cold_starts": totals["cold_starts"],
        "invocations": totals["invocations"],
        "cold_start_fraction": (
            totals["cold_starts"] / totals["invocations"]
            if totals["invocations"]
            else 0.0
        ),
        "sim_events": totals["sim_events"],
    }
    return {
        "schema": SCHEMA,
        "spec": spec.to_dict(),
        "groups": groups_out,
        "aggregates": aggregates,
        # Counters only (ints, work-determined): byte-stable across
        # shard and worker counts like everything else in the document.
        "meter": meter.snapshot(),
    }


def compute_error_bound(
    spec: ShardedFleetSpec,
    plan: ShardPlan,
    group_records: Sequence[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """The conservative divergence bound for a split-coupled run.

    ``None`` when no link was split (the run is exact).  See the module
    docstring for the guarantee and its conditions.
    """
    if not plan.split_links:
        return None
    by_zone: Dict[str, Mapping[str, Any]] = {}
    for group in group_records:
        for name in group["zones"]:
            by_zone[name] = group

    def adjacent_count(
        source: Mapping[str, Mapping[str, int]],
        other: Mapping[str, Mapping[str, int]],
    ) -> int:
        count = 0
        for function, buckets in source.items():
            peer = other.get(function)
            if not peer:
                continue
            for key, invocations in buckets.items():
                window = int(key)
                if any(str(window + d) in peer for d in (-1, 0, 1)):
                    count += invocations
        return count

    affected = 0
    split_group_jobs = []
    max_cold_s = 0.0
    for a, b in plan.split_links:
        group_a, group_b = by_zone[a], by_zone[b]
        affected += adjacent_count(
            group_a.get("windows", {}), group_b.get("windows", {})
        )
        affected += adjacent_count(
            group_b.get("windows", {}), group_a.get("windows", {})
        )
        for group in (group_a, group_b):
            split_group_jobs.append(sum(u["jobs"] for u in group["ues"]))
            max_cold_s = max(max_cold_s, group.get("max_cold_start_s", 0.0))

    total_jobs = spec.topology.total_jobs
    widest_group = max(split_group_jobs, default=0)
    return {
        "window_s": spec.effective_sync_window_s,
        "split_links": [list(link) for link in plan.split_links],
        "affected_invocations": affected,
        "cold_starts": affected,
        "mean_response_s": (
            affected * max_cold_s * widest_group / total_jobs
            if total_jobs
            else 0.0
        ),
        "total_cloud_cost_usd": 0.0,
    }


# -- fleet health -----------------------------------------------------------


def build_fleet_health(
    spec: ShardedFleetSpec,
    document: Mapping[str, Any],
    merged: Monitor,
    action_log: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The merged fleet health document (schema ``repro.monitor.fleet/1``).

    Composes the offline SLO replay over the merged group monitors
    (:func:`~repro.monitor.fleet.replay_fleet_slos`) with per-zone
    rollups derived from the merged fleet document.  A zone inherits the
    health status of its coupling-group entity (the attribution unit —
    shared warm pool, shared fate); numeric rollups come from its own UE
    records.  Every fold walks zones and UEs in sorted order, so the
    document is byte-deterministic whenever the inputs are.
    """
    engine = replay_fleet_slos(merged)
    end_s = merged.clock.now
    entity_health = engine.health(end_s)

    zones: Dict[str, Dict[str, Any]] = {}
    for group in document["groups"]:
        label = _group_label(group["zones"])
        status = entity_health.get(
            f"zone/{label}", {"status": "ok", "active_alerts": []}
        )
        for zone_name in group["zones"]:
            ues = [u for u in group["ues"] if u["zone"] == zone_name]
            responses = [r for u in ues for r in u["responses_s"]]
            zones[zone_name] = {
                "group": label,
                "status": status["status"],
                "active_alerts": list(status["active_alerts"]),
                "ues": len(ues),
                "jobs": sum(u["jobs"] for u in ues),
                "completed": sum(u["completed"] for u in ues),
                "failures": sum(u["failures"] for u in ues),
                "deadline_misses": sum(u["misses"] for u in ues),
                "mean_response_s": (
                    sum(responses) / len(responses) if responses else 0.0
                ),
                "cost_usd": sum(u["cost_usd"] for u in ues),
            }

    statuses = [entry["status"] for entry in entity_health.values()]
    fleet_status = (
        "critical" if "critical" in statuses
        else "degraded" if "degraded" in statuses
        else "ok"
    )
    aggregates = document["aggregates"]
    # The replay finalizes, so nothing stays literally active; what the
    # rollup wants is alerts that never organically recovered.
    alerts_active = sum(
        1 for a in engine.alerts if a.cleared_at is None or a.final
    )
    out: Dict[str, Any] = {
        "schema": FLEET_HEALTH_SCHEMA,
        "spec": spec.to_dict(),
        "fleet": {
            "status": fleet_status,
            "zones": len(zones),
            "ues": spec.topology.total_ues,
            "groups": len(document["groups"]),
            "alerts_fired": len(engine.alerts),
            "alerts_active": alerts_active,
            "monitored_events": sum(
                merged.series(*key).total_count for key in merged.entities()
            ),
        },
        "counters": {
            "jobs_submitted": aggregates["jobs_submitted"],
            "jobs_completed": aggregates["jobs_completed"],
            "failures": aggregates["failures"],
            "cold_starts": aggregates["cold_starts"],
            "invocations": aggregates["invocations"],
            "platform_usd": aggregates["platform_usd"],
            "total_cloud_cost_usd": aggregates["total_cloud_cost_usd"],
        },
        # Group-summed runtime meter from the merged document: a pure
        # function of the simulated work, so the health document stays
        # byte-identical across shard/worker counts.
        "meter": dict(document.get("meter", {})),
        "zones": dict(sorted(zones.items())),
        "entities": entity_health,
        "evaluated_at": end_s,
        "eval_interval_s": engine.eval_interval_s,
        "slos": [slo.name for slo in engine.slos],
        "alerts": [alert.to_dict() for alert in engine.alerts],
        "log": list(engine.log),
        "stats": merged.stats(end_s),
    }
    if action_log is not None:
        # Remediated runs carry their merged (group-ordered) action log
        # alongside the alert log; the key is absent otherwise so
        # unremediated health documents keep their exact bytes.
        out["actions"] = list(action_log)
    return out


def actions_from_group_records(
    group_records: Sequence[Mapping[str, Any]],
) -> List[str]:
    """The merged fleet action log: per-group lines in group-key order.

    Groups are atomic sim units, so each group's lines are internally
    time-ordered and byte-identical under every shard layout; ordering
    the groups by their sorted zone tuple (the same key the document
    merge uses) makes the concatenation layout-independent too.
    """
    ordered = sorted(group_records, key=lambda g: tuple(g["zones"]))
    return [
        line for group in ordered for line in group.get("actions", ())
    ]


def _fleet_health(
    spec: ShardedFleetSpec,
    document: Mapping[str, Any],
    group_records: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Merge the group monitors and build the health document: the tail
    :func:`run_sharded` and :func:`reference_health` share."""
    merged = merge_snapshots(group["monitor"] for group in group_records)
    return build_fleet_health(
        spec, document, merged,
        action_log=(
            actions_from_group_records(group_records)
            if spec.remediate else None
        ),
    )


# -- drivers ----------------------------------------------------------------


@dataclass
class ShardedFleetResult:
    """A sharded run: plan, merged document, bound, and (if monitored)
    the merged health document."""

    spec: ShardedFleetSpec
    plan: ShardPlan
    document: Dict[str, Any]
    #: Host-side meter: the folded group counters plus the fan-out/merge
    #: stats only the driver can see (shard runs, merge bytes/seconds).
    meter: RuntimeMeter
    #: The merged document's canonical text, serialised once at merge
    #: time (it is also what ``merge_bytes`` measured).
    merged_text: str
    error_bound: Optional[Dict[str, Any]] = None
    health: Optional[Dict[str, Any]] = None

    @property
    def aggregates(self) -> Dict[str, Any]:
        return self.document["aggregates"]

    @property
    def exact(self) -> bool:
        """True when no link was split — the byte-identity regime."""
        return self.error_bound is None

    def merged_json(self) -> str:
        """Canonical JSON of the merged document, newline-terminated —
        byte-identical across shard counts and worker counts whenever
        :attr:`exact` holds."""
        return self.merged_text

    def health_json(self) -> str:
        """Canonical JSON of the health document, newline-terminated.

        Raises ``ValueError`` when the run was not monitored; byte
        determinism matches :meth:`merged_json`.
        """
        if self.health is None:
            raise ValueError(
                "run was not monitored; set ShardedFleetSpec.monitor=True"
            )
        return canonical_json(self.health) + "\n"

    @property
    def alert_log(self) -> str:
        """The merged fleet alert log ("" when unmonitored or quiet)."""
        if self.health is None:
            return ""
        log = self.health["log"]
        return "\n".join(log) + ("\n" if log else "")

    @property
    def action_log(self) -> str:
        """The merged remediation action log ("" when not remediated)."""
        if self.health is None:
            return ""
        log = self.health.get("actions", [])
        return "\n".join(log) + ("\n" if log else "")


def run_sharded(
    spec: ShardedFleetSpec,
    n_shards: int = 1,
    workers: int = 1,
    split_coupled: bool = False,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> ShardedFleetResult:
    """Partition, fan the shards out, and merge deterministically.

    Shards are one sweep config each, executed by the
    :class:`~repro.sweep.runner.SweepRunner` machinery (in-process when
    ``workers == 1``, a multiprocessing pool otherwise) — completion
    order cannot influence the merge, and a ``cache_dir`` turns repeat
    runs of unchanged shards into cache hits.  ``progress`` receives one
    :class:`~repro.sweep.runner.SweepProgress` per finished shard (live
    heartbeats); when ``spec.monitor`` is set, the group monitors are
    merged and the health document attached to the result.
    """
    plan = partition_topology(spec.topology, n_shards, split_coupled)
    spec_dict = spec.to_dict()
    configs = [
        {"shard": index, "spec": spec_dict, "zones": list(shard)}
        for index, shard in enumerate(plan.shards)
    ]
    sweep = SweepSpec(
        scenario="repro.fleet.sharded:shard_run", points=configs
    )
    runner = SweepRunner(
        sweep, workers=workers, cache_dir=cache_dir, progress=progress
    )
    meter = RuntimeMeter()
    meter.shard_runs += len(configs)
    fanout_started = perf_counter()
    result = runner.run()
    meter.shard_wall_s += perf_counter() - fanout_started
    shard_results = result.results_for(configs)
    group_records = [
        group for shard in shard_results for group in shard["groups"]
    ]
    merge_started = perf_counter()
    document = merge_group_records(spec, group_records)
    merged_text = canonical_json(document) + "\n"
    meter.merge_wall_s += perf_counter() - merge_started
    meter.merge_bytes += len(merged_text.encode("utf-8"))
    meter.absorb(runner.meter)
    meter.absorb_snapshot(document["meter"])
    bound = compute_error_bound(spec, plan, group_records)
    health = (
        _fleet_health(spec, document, group_records) if spec.monitor else None
    )
    return ShardedFleetResult(
        spec=spec, plan=plan, document=document, error_bound=bound,
        health=health, meter=meter, merged_text=merged_text,
    )


def reference_report(spec: ShardedFleetSpec) -> Dict[str, Any]:
    """The single-process reference: every coupling group simulated
    in-process through the ordinary ``FleetController`` run path, merged
    with the same arithmetic as the sharded runner.  Differential tests
    compare :func:`run_sharded` output against this byte for byte."""
    records = [
        _simulate_group(spec, group)
        for group in spec.topology.coupling_groups()
    ]
    return merge_group_records(spec, records)


def reference_json(spec: ShardedFleetSpec) -> str:
    """Canonical JSON of :func:`reference_report`, newline-terminated."""
    return canonical_json(reference_report(spec)) + "\n"


def reference_health(spec: ShardedFleetSpec) -> Dict[str, Any]:
    """The single-process reference health document.

    Simulates every coupling group in-process (``spec.monitor`` must be
    set), merges the group monitors, and builds the same health document as
    :func:`run_sharded` — the differential baseline for fleet
    observability byte-identity tests.
    """
    if not spec.monitor:
        raise ValueError("reference_health requires spec.monitor=True")
    records = [
        _simulate_group(spec, group)
        for group in spec.topology.coupling_groups()
    ]
    return _fleet_health(spec, merge_group_records(spec, records), records)


__all__ = [
    "FLEET_CHAOS",
    "SCHEMA",
    "ShardedFleetResult",
    "ShardedFleetSpec",
    "actions_from_group_records",
    "build_fleet_health",
    "compute_error_bound",
    "fleet_chaos_schedule",
    "merge_group_records",
    "reference_health",
    "reference_json",
    "reference_report",
    "run_sharded",
    "shard_run",
]
