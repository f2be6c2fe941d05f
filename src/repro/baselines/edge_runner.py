"""The edge-computing comparison point.

Executes application DAGs with offloadable components on a provisioned
:class:`~repro.edge.node.EdgeNode` reached through the low-latency edge
path, pinned components on the UE.  Benchmark F5 compares this runner's
latency-adequacy and *total cost of ownership* (provisioned node-hours)
against the serverless controller under varying slack — the quantitative
version of the paper's core argument.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.apps.graph import AppGraph, run_dag
from repro.apps.jobs import Job, JobResult
from repro.core.controller import Environment, JobRunner
from repro.core.partitioning import Partition
from repro.device.ue import DeviceSpec, UserEquipment
from repro.edge.node import EdgeNode, EdgeNodeSpec
from repro.metrics import MetricRegistry
from repro.network.link import NetworkPath
from repro.network.profiles import edge_path, profile as connectivity_profile
from repro.sim import Event, Simulator
from repro.sim.rng import SeedSequenceRegistry


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


class EdgeJobRunner(JobRunner):
    """Runs jobs with offloadable components on the edge node.

    A job runs on the controller's driver, :func:`~repro.apps.graph.run_dag`;
    only the bodies differ.  A component runs on the edge node (the UE
    idles meanwhile) or on the UE, and a flow between the two moves its
    bytes over the uplink or the downlink radio.
    """

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

    def _job_proc(self, job: Job) -> Generator[Event, Any, JobResult]:
        env = self.env
        sim = env.sim
        started = sim.now
        partition = self.partition
        energy_model = env.ue.spec.energy
        energy_j = 0.0
        energy_breakdown: Dict[str, float] = {}
        finish_times: Dict[str, float] = {}

        def charge(kind: str, joules: float) -> None:
            nonlocal energy_j
            energy_j += joules
            energy_breakdown[kind] = energy_breakdown.get(kind, 0.0) + joules

        def component_body(name: str) -> Generator[Event, Any, None]:
            actual = env.actual_work(job.component_work(name), self._exec_rng)
            if partition.is_cloud(name):  # "cloud" side = the edge node here
                execution = yield from env.edge.execute_body(actual)
                charge("idle", energy_model.idle_energy(execution.latency))
            else:
                execution = yield from env.ue.execute_body(actual)
                charge("compute", execution.energy_j)
            finish_times[name] = sim.now

        def edge_body(src: str, dst: str) -> Generator[Event, Any, None]:
            nbytes = job.flow_bytes(src, dst)
            if partition.is_cloud(dst):
                result = yield from env.ue.radio_body(
                    nbytes, env.uplink, transmit=True
                )
                charge("tx", energy_model.transmit_energy(result.radio_seconds))
            else:
                result = yield from env.ue.radio_body(
                    nbytes, env.downlink, transmit=False
                )
                charge("rx", energy_model.receive_energy(result.radio_seconds))

        def moves_data(src: str, dst: str) -> bool:
            """Only a flow between the UE and the edge node moves bytes."""
            return partition.is_cloud(src) != partition.is_cloud(dst)

        yield from run_dag(sim, self.app, component_body, edge_body, moves_data)

        return JobResult(
            job=job,
            started_at=started,
            finished_at=sim.now,
            ue_energy_j=energy_j,
            cloud_cost_usd=0.0,  # edge cost is provisioned, not per-job
            component_finish_times=finish_times,
            energy_breakdown=energy_breakdown,
        )


__all__ = ["EdgeEnvironment", "EdgeJobRunner"]
