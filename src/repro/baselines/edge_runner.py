"""The edge-computing comparison point.

Executes application DAGs with offloadable components on a provisioned
:class:`~repro.edge.node.EdgeNode` reached through the low-latency edge
path, pinned components on the UE.  Benchmark F5 compares this runner's
latency-adequacy and *total cost of ownership* (provisioned node-hours)
against the serverless controller under varying slack — the quantitative
version of the paper's core argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job, JobResult
from repro.core.controller import ControllerReport, Environment, run_jobs
from repro.core.partitioning import Partition
from repro.device.ue import DeviceSpec, UserEquipment
from repro.edge.node import EdgeNode, EdgeNodeSpec
from repro.metrics import MetricRegistry
from repro.network.link import NetworkPath
from repro.network.profiles import edge_path, profile as connectivity_profile
from repro.sim import Event, Simulator
from repro.sim.rng import RngStream, SeedSequenceRegistry


class EdgeEnvironment:
    """UE + edge node + access-network paths."""

    def __init__(
        self,
        sim: Simulator,
        ue: UserEquipment,
        edge: EdgeNode,
        uplink: NetworkPath,
        downlink: NetworkPath,
        rng: SeedSequenceRegistry,
        metrics: Optional[MetricRegistry] = None,
        execution_noise_sigma: float = 0.05,
    ) -> None:
        self.sim = sim
        self.ue = ue
        self.edge = edge
        self.uplink = uplink
        self.downlink = downlink
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.execution_noise_sigma = execution_noise_sigma

    #: Run-to-run execution noise, drawn exactly as the controller's
    #: :class:`~repro.core.controller.Environment` draws it.
    actual_work = Environment.actual_work

    @staticmethod
    def build(
        seed: int = 0,
        connectivity: str = "4g",
        device: Optional[DeviceSpec] = None,
        edge_spec: Optional[EdgeNodeSpec] = None,
        execution_noise_sigma: float = 0.05,
    ) -> "EdgeEnvironment":
        """Assemble a standard edge environment from a connectivity preset."""
        sim = Simulator()
        rng = SeedSequenceRegistry(seed)
        metrics = MetricRegistry()
        prof = connectivity_profile(connectivity)
        return EdgeEnvironment(
            sim=sim,
            ue=UserEquipment(sim, device, metrics=metrics),
            edge=EdgeNode(sim, edge_spec, metrics=metrics),
            uplink=edge_path(sim, prof, uplink=True, metrics=metrics),
            downlink=edge_path(sim, prof, uplink=False, metrics=metrics),
            rng=rng,
            metrics=metrics,
            execution_noise_sigma=execution_noise_sigma,
        )


class EdgeJobRunner:
    """Runs jobs with offloadable components on the edge node."""

    def __init__(
        self,
        env: EdgeEnvironment,
        app: AppGraph,
        partition: Optional[Partition] = None,
    ) -> None:
        self.env = env
        self.app = app
        self.partition = partition or Partition.full_offload(app)
        self.partition.validate(app)
        self._exec_rng = env.rng.stream(f"edge_runner.{app.name}.exec")

    def submit(self, job: Job) -> Event:
        """Execute one job immediately; process yields a JobResult."""
        return self.env.sim.spawn(self.start(job), name=f"edgejob{job.job_id}")

    def start(self, job: Job) -> Generator[Event, Any, JobResult]:
        """Check one job and return its body for the caller to run.

        The caller delegates into the body (``yield from``); a job for
        another application raises here, at the call.
        """
        if job.app.name != self.app.name:
            raise ValueError("job belongs to a different application")
        return self._job_proc(job)

    def _job_proc(self, job: Job) -> Generator[Event, Any, JobResult]:
        sim = self.env.sim
        started = sim.now
        app = self.app
        partition = self.partition
        energy_j = 0.0
        energy_breakdown: Dict[str, float] = {}
        finish_times: Dict[str, float] = {}

        def charge(kind: str, joules: float) -> None:
            nonlocal energy_j
            energy_j += joules
            energy_breakdown[kind] = energy_breakdown.get(kind, 0.0) + joules

        component_done: Dict[str, Event] = {
            name: sim.event() for name in app.component_names
        }
        edge_done: Dict[Tuple[str, str], Event] = {
            (flow.src, flow.dst): sim.event() for flow in app.flows
        }

        def component_proc(name: str) -> Generator[Event, Any, None]:
            incoming = [edge_done[(p, name)] for p in app.predecessors(name)]
            if incoming:
                yield sim.all_of(incoming)
            actual = self.env.actual_work(
                job.component_work(name), self._exec_rng
            )
            if partition.is_cloud(name):  # "cloud" side = the edge node here
                execution = yield self.env.edge.execute(actual)
                charge(
                    "idle",
                    self.env.ue.spec.energy.idle_energy(execution.latency),
                )
            else:
                execution = yield from self.env.ue.execute_body(actual)
                charge("compute", execution.energy_j)
            finish_times[name] = sim.now
            component_done[name].succeed(None)

        def edge_proc(src: str, dst: str) -> Generator[Event, Any, None]:
            yield component_done[src]
            src_remote = partition.is_cloud(src)
            dst_remote = partition.is_cloud(dst)
            if src_remote != dst_remote:
                nbytes = job.flow_bytes(src, dst)
                if not src_remote and dst_remote:
                    result = yield from self.env.ue.radio_body(
                        nbytes, self.env.uplink, transmit=True
                    )
                    charge(
                        "tx",
                        self.env.ue.spec.energy.transmit_energy(
                            result.radio_seconds
                        ),
                    )
                else:
                    result = yield from self.env.ue.radio_body(
                        nbytes, self.env.downlink, transmit=False
                    )
                    charge(
                        "rx",
                        self.env.ue.spec.energy.receive_energy(
                            result.radio_seconds
                        ),
                    )
            edge_done[(src, dst)].succeed(None)

        processes = [
            sim.spawn(edge_proc(f.src, f.dst), name=f"edge.{f.src}->{f.dst}")
            for f in app.flows
        ]
        processes += [
            sim.spawn(component_proc(n), name=f"comp.{n}")
            for n in app.component_names
        ]
        yield sim.all_of(processes)

        return JobResult(
            job=job,
            started_at=started,
            finished_at=sim.now,
            ue_energy_j=energy_j,
            cloud_cost_usd=0.0,  # edge cost is provisioned, not per-job
            component_finish_times=finish_times,
            energy_breakdown=energy_breakdown,
        )

    def run_workload(self, jobs: List[Job]) -> ControllerReport:
        """Release each job at its ``released_at`` and run to completion."""
        return run_jobs(self.env.sim, self.start, jobs)


__all__ = ["EdgeEnvironment", "EdgeJobRunner"]
