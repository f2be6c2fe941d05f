"""Multi-device fleet over a shared serverless platform."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job
from repro.core.allocation import MemoryAllocator
from repro.core.controller import (
    ControllerReport,
    Environment,
    OffloadController,
    PlanMemo,
    release_jobs,
)
from repro.core.demand import DemandModel, RegressionEstimator
from repro.core.partitioning import (
    MinCutPartitioner,
    ObjectiveWeights,
    Partitioner,
)
from repro.core.scheduler import Scheduler
from repro.device.ue import DeviceSpec, UserEquipment
from repro.metrics import MetricRegistry
from repro.network.profiles import cloud_path, profile as connectivity_profile
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.sim import Event, Simulator
from repro.sim.rng import SeedSequenceRegistry
from repro.storage.objectstore import ObjectStore, StoragePricing


class FleetEnvironment:
    """N per-device environments sharing one simulator and platform."""

    def __init__(
        self,
        sim: Simulator,
        platform: ServerlessPlatform,
        devices: List[Environment],
        rng: SeedSequenceRegistry,
        metrics: MetricRegistry,
    ) -> None:
        if not devices:
            raise ValueError("a fleet needs at least one device")
        self.sim = sim
        self.platform = platform
        self.devices = devices
        self.rng = rng
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self.devices)

    @staticmethod
    def build(
        n_devices: int,
        seed: int = 0,
        connectivity: "str | Sequence[str]" = "4g",
        device: Optional[DeviceSpec] = None,
        platform_config: Optional[PlatformConfig] = None,
        with_storage: bool = False,
        storage_pricing: Optional[StoragePricing] = None,
        execution_noise_sigma: float = 0.05,
    ) -> "FleetEnvironment":
        """Assemble a fleet.

        ``connectivity`` may be one preset for every device or a sequence
        cycled across devices (mixed-technology fleets).
        """
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        sim = Simulator()
        rng = SeedSequenceRegistry(seed)
        metrics = MetricRegistry()
        platform = ServerlessPlatform(
            sim, platform_config, metrics=metrics, rng=rng.stream("platform")
        )
        storage = None
        if with_storage or storage_pricing is not None:
            storage = ObjectStore(sim, storage_pricing, metrics=metrics)
        profiles = (
            [connectivity] if isinstance(connectivity, str) else list(connectivity)
        )
        devices = []
        for index in range(n_devices):
            prof = connectivity_profile(profiles[index % len(profiles)])
            from dataclasses import replace as _replace

            spec = device if device is not None else DeviceSpec()
            spec = _replace(spec, name=f"ue{index}")
            ue = UserEquipment(sim, spec, metrics=metrics)
            devices.append(
                Environment(
                    sim=sim,
                    ue=ue,
                    platform=platform,
                    uplink=cloud_path(sim, prof, uplink=True, metrics=metrics),
                    downlink=cloud_path(sim, prof, uplink=False, metrics=metrics),
                    rng=rng.fork(f"device{index}"),
                    metrics=metrics,
                    execution_noise_sigma=execution_noise_sigma,
                    storage=storage,
                )
            )
        return FleetEnvironment(sim, platform, devices, rng, metrics)


@dataclass
class FleetReport:
    """Aggregate and per-device outcomes of a fleet run."""

    per_device: Dict[int, ControllerReport] = field(default_factory=dict)

    @property
    def jobs_completed(self) -> int:
        """Completed jobs across all devices."""
        return sum(r.jobs_completed for r in self.per_device.values())

    @property
    def failures(self) -> int:
        """Failed jobs across all devices."""
        return sum(len(r.failures) for r in self.per_device.values())

    @property
    def deadline_miss_rate(self) -> float:
        """Fleet-wide miss fraction (failures count as misses)."""
        total = missed = 0
        for report in self.per_device.values():
            total += report.jobs_completed + len(report.failures)
            missed += sum(1 for r in report.results if not r.met_deadline)
            missed += len(report.failures)
        return missed / total if total else 0.0

    @property
    def mean_response_s(self) -> float:
        """Mean response time over every completed job.

        An empty or all-failed run reports ``0.0`` rather than NaN: the
        sharded fleet path makes zero-job shards reachable, and NaN
        would poison every canonical-JSON merge downstream.
        """
        responses = [
            r.response_time
            for report in self.per_device.values()
            for r in report.results
        ]
        return sum(responses) / len(responses) if responses else 0.0

    @property
    def total_ue_energy_j(self) -> float:
        """Energy summed over every device."""
        return sum(r.total_ue_energy_j for r in self.per_device.values())

    @property
    def total_cloud_cost_usd(self) -> float:
        """Serverless bill summed over every device's jobs."""
        return sum(r.total_cloud_cost_usd for r in self.per_device.values())

    @staticmethod
    def merge(reports: Iterable["FleetReport"]) -> "FleetReport":
        """Key-ordered union of per-device reports.

        Merging is associative with :class:`FleetReport()` as identity,
        and every aggregate of the merged report equals the same
        aggregate computed over the concatenated job set — the contract
        the sharded fleet runner's deterministic merge relies on.  A
        device index appearing in more than one input is an error: the
        shard partitioner assigns every UE exactly once, so a collision
        means the inputs do not come from a partition.
        """
        merged: Dict[int, ControllerReport] = {}
        for report in reports:
            for index, device_report in report.per_device.items():
                if index in merged:
                    raise ValueError(
                        f"device {index} appears in more than one report"
                    )
                merged[index] = device_report
        return FleetReport(per_device=dict(sorted(merged.items())))


class FleetController:
    """One offloading controller per device, sharing functions and demand.

    All devices run the *same* application, so they share one demand
    model (fleet-wide learning) and one set of deployed functions (the
    warm pools are communal — the fleet's key economy).  Each device
    still plans against its own connectivity, but the controllers share
    one partitioner, one allocator and one plan memo, so a device whose
    planning inputs equal those of a plan already solved, by itself or
    by another device, reuses that plan without building a context (see
    :meth:`~repro.core.controller.OffloadController.plan`).
    """

    def __init__(
        self,
        env: FleetEnvironment,
        app: AppGraph,
        partitioner: Optional[Partitioner] = None,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        weights: Optional[ObjectiveWeights] = None,
        demand_model: Optional[DemandModel] = None,
        latency_slo_s: float = math.inf,
    ) -> None:
        self.env = env
        self.app = app
        self.demand = demand_model or DemandModel(app, RegressionEstimator)
        partitioner = partitioner or MinCutPartitioner()
        allocator = MemoryAllocator(billing=env.platform.config.billing)
        plan_memo: PlanMemo = {}
        self.controllers: List[OffloadController] = []
        for device_env in env.devices:
            self.controllers.append(
                OffloadController(
                    env=device_env,
                    app=app,
                    partitioner=partitioner,
                    allocator=allocator,
                    scheduler=scheduler_factory() if scheduler_factory else None,
                    demand_model=self.demand,
                    weights=weights,
                    latency_slo_s=latency_slo_s,
                    plan_memo=plan_memo,
                )
            )

    def profile_offline(self, **kwargs) -> None:
        """Train the shared demand model once (CI profiles once per app)."""
        self.controllers[0].profile_offline(**kwargs)

    def plan(self, input_mb: float = 1.0) -> None:
        """Plan every device; functions are shared, so later plans reuse
        the deployments of earlier ones unless connectivity changes the
        allocation, and devices with equal planning inputs share one
        solve through the plan memo."""
        for controller in self.controllers:
            controller.plan(input_mb)

    def launch(
        self, jobs_by_device: Dict[int, List[Job]]
    ) -> Tuple[FleetReport, List[Event]]:
        """Spawn the release drivers without running the simulator.

        Returns the (still-empty) report and the driver completion
        events.  :meth:`run` is ``launch`` + one ``sim.run``; keeping the
        two apart lets several fleets — e.g. one per zone in
        :mod:`repro.fleet.sharded` — co-simulate on a shared simulator
        and platform before anything is driven to completion.  Callers
        of ``launch`` must sort each device's results by completion time
        once the simulation finishes (``run`` does this for you).
        """
        report = FleetReport(
            per_device={index: ControllerReport() for index in jobs_by_device}
        )
        sim = self.env.sim
        drivers: List[Event] = []
        for index, jobs in jobs_by_device.items():
            if not 0 <= index < len(self.controllers):
                raise IndexError(f"no device {index} in this fleet")
            drivers.extend(
                release_jobs(
                    sim,
                    self.controllers[index].start,
                    jobs,
                    report.per_device[index],
                )
            )
        return report, drivers

    def run(self, jobs_by_device: Dict[int, List[Job]]) -> FleetReport:
        """Release each device's jobs and run the shared simulation."""
        report, drivers = self.launch(jobs_by_device)
        sim = self.env.sim
        if drivers:
            sim.run(until=sim.all_of(drivers))
        for device_report in report.per_device.values():
            device_report.results.sort(key=lambda r: r.finished_at)
        return report


__all__ = ["FleetController", "FleetEnvironment", "FleetReport"]
