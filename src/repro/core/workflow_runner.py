"""Workflow-orchestrated job execution.

The :class:`~repro.core.controller.OffloadController` coordinates every
cloud invocation from the UE, which keeps the device awake-idle for the
whole cloud episode.  When the partition is *phase-shaped* — local
prologue → one contiguous cloud region → local epilogue, the shape every
catalog application's optimal cut has — the cloud region can instead be
handed to a server-side :class:`~repro.serverless.workflow.WorkflowEngine`
in one shot.  The device then **deep-sleeps** until the workflow's
completion push arrives, trading orchestration fees (state transitions)
for coordinator energy.

:func:`is_phase_shaped` tests the precondition;
:class:`WorkflowOffloadRunner` executes jobs in the three phases.
Ablation A6 quantifies the trade against the controller.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job, JobResult
from repro.core.controller import ControllerReport, Environment, run_jobs
from repro.core.partitioning import Partition
from repro.serverless.function import FunctionSpec
from repro.serverless.retry import RetryPolicy
from repro.serverless.workflow import (
    WorkflowDefinition,
    WorkflowEngine,
    WorkflowStep,
)
from repro.sim import Event


def is_phase_shaped(app: AppGraph, partition: Partition) -> bool:
    """True when no local component sits *between* cloud components.

    Formally: no local component has both a cloud ancestor and a cloud
    descendant.  Under that condition the cloud side can run as one
    uninterrupted server-side workflow.
    """
    partition.validate(app)
    has_cloud_ancestor: Dict[str, bool] = {}
    for name in app.component_names:  # topological
        has_cloud_ancestor[name] = any(
            partition.is_cloud(p) or has_cloud_ancestor[p]
            for p in app.predecessors(name)
        )
    has_cloud_descendant: Dict[str, bool] = {}
    for name in reversed(app.component_names):
        has_cloud_descendant[name] = any(
            partition.is_cloud(s) or has_cloud_descendant[s]
            for s in app.successors(name)
        )
    for name in app.component_names:
        if partition.is_cloud(name):
            continue
        if has_cloud_ancestor[name] and has_cloud_descendant[name]:
            return False
    return True


class WorkflowOffloadRunner:
    """Executes jobs as local-prologue → cloud workflow → local-epilogue.

    The runner deploys one function per cloud component (at the supplied
    memory plan) and registers a workflow over the cloud sub-DAG.  During
    the workflow the UE deep-sleeps; cut-edge data still moves over the
    radio before and after.
    """

    def __init__(
        self,
        env: Environment,
        app: AppGraph,
        partition: Partition,
        memory_plan: Optional[Dict[str, float]] = None,
        engine: Optional[WorkflowEngine] = None,
        retry_policy: Optional[RetryPolicy] = None,
        function_prefix: str = "wf.",
    ) -> None:
        if not is_phase_shaped(app, partition):
            raise ValueError(
                f"partition of {app.name!r} is not phase-shaped; "
                "use OffloadController instead"
            )
        self.env = env
        self.app = app
        self.partition = partition
        self.function_prefix = function_prefix
        self.engine = engine or WorkflowEngine(
            env.sim,
            env.platform,
            retry_policy=retry_policy,
            rng=env.rng.stream(f"workflow.{app.name}"),
        )
        self._exec_rng = env.rng.stream(f"wfrunner.{app.name}.exec")

        memory_plan = memory_plan or {}
        self.cloud_components = [
            n for n in app.component_names if partition.is_cloud(n)
        ]
        for name in self.cloud_components:
            component = app.component(name)
            env.platform.deploy(
                FunctionSpec(
                    name=self._function_name(name),
                    memory_mb=memory_plan.get(name, 1769.0),
                    package_mb=component.package_mb,
                    parallel_fraction=component.parallel_fraction,
                )
            )
        self.definition: Optional[WorkflowDefinition] = None
        if self.cloud_components:
            self.definition = WorkflowDefinition(
                f"{app.name}.cloudside",
                [
                    WorkflowStep(
                        name=name,
                        function=self._function_name(name),
                        depends_on=tuple(
                            p
                            for p in app.predecessors(name)
                            if partition.is_cloud(p)
                        ),
                    )
                    for name in self.cloud_components
                ],
            )

    def _function_name(self, component: str) -> str:
        return f"{self.function_prefix}{self.app.name}.{component}"

    # -- execution ---------------------------------------------------------

    def submit(self, job: Job) -> Event:
        """Execute one job; the process event yields a JobResult."""
        return self.env.sim.spawn(self.start(job), name=f"wfjob{job.job_id}")

    def start(self, job: Job) -> Generator[Event, Any, JobResult]:
        """Check one job and return its body for the caller to run.

        The caller delegates into the body (``yield from``); a job for
        another application raises here, at the call.
        """
        if job.app.name != self.app.name:
            raise ValueError("job belongs to a different application")
        return self._job_proc(job)

    def _local_phase(
        self,
        job: Job,
        members: List[str],
        finish_times: Dict[str, float],
    ) -> Generator[Event, Any, float]:
        """Run a set of local components respecting their mutual edges.

        Returns the energy spent.  (Edges to/from the cloud phase are
        handled by the caller.)"""
        sim = self.env.sim
        energy = 0.0
        done: Dict[str, Event] = {name: sim.event() for name in members}
        member_set = set(members)

        def component_proc(name: str) -> Generator[Event, Any, None]:
            nonlocal energy
            upstream = [
                done[p] for p in self.app.predecessors(name) if p in member_set
            ]
            if upstream:
                yield sim.all_of(upstream)
            actual = self.env.actual_work(
                job.component_work(name), self._exec_rng
            )
            execution = yield from self.env.ue.execute_body(actual)
            energy += execution.energy_j
            finish_times[name] = sim.now
            done[name].succeed(None)

        processes = [
            sim.spawn(component_proc(name), name=f"wf.local.{name}")
            for name in members
        ]
        if processes:
            yield sim.all_of(processes)
        return energy

    def _job_proc(self, job: Job) -> Generator[Event, Any, JobResult]:
        sim = self.env.sim
        started = sim.now
        app = self.app
        partition = self.partition
        energy_model = self.env.ue.spec.energy
        energy_j = 0.0
        energy_breakdown: Dict[str, float] = {}
        cost_usd = 0.0
        finish_times: Dict[str, float] = {}

        def charge(kind: str, joules: float) -> None:
            nonlocal energy_j
            energy_j += joules
            energy_breakdown[kind] = energy_breakdown.get(kind, 0.0) + joules

        cloud = set(self.cloud_components)
        prologue = [
            n
            for n in app.component_names
            if n not in cloud
            and not any(p in cloud for p in self._ancestors(n))
        ]
        epilogue = [
            n for n in app.component_names if n not in cloud and n not in prologue
        ]

        charge(
            "compute",
            (yield from self._local_phase(job, prologue, finish_times)),
        )

        if self.definition is not None:
            # Upload every cut edge into the cloud region.
            for flow in app.flows:
                if flow.src in set(prologue) and flow.dst in cloud:
                    nbytes = job.flow_bytes(flow.src, flow.dst)
                    result = yield from self.env.ue.radio_body(
                        nbytes, self.env.uplink, transmit=True
                    )
                    charge(
                        "tx",
                        energy_model.transmit_energy(result.radio_seconds),
                    )

            # Hand off and deep-sleep until the completion push.
            work = {
                name: self.env.actual_work(
                    job.component_work(name), self._exec_rng
                )
                for name in self.cloud_components
            }
            sleep_start = sim.now
            execution = yield self.engine.run(self.definition, work)
            charge(
                "sleep",
                energy_model.deep_sleep_energy(sim.now - sleep_start),
            )
            cost_usd += execution.total_cost_usd
            for name, invocation in execution.invocations.items():
                finish_times[name] = invocation.finished_at

            # Pull every cut edge back out.
            for flow in app.flows:
                if flow.src in cloud and flow.dst in set(epilogue):
                    nbytes = job.flow_bytes(flow.src, flow.dst)
                    result = yield from self.env.ue.radio_body(
                        nbytes, self.env.downlink, transmit=False
                    )
                    charge(
                        "rx",
                        energy_model.receive_energy(result.radio_seconds),
                    )

        charge(
            "compute",
            (yield from self._local_phase(job, epilogue, finish_times)),
        )

        return JobResult(
            job=job,
            started_at=started,
            finished_at=sim.now,
            ue_energy_j=energy_j,
            cloud_cost_usd=cost_usd,
            component_finish_times=finish_times,
            energy_breakdown=energy_breakdown,
        )

    def _ancestors(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = list(self.app.predecessors(name))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self.app.predecessors(node))
        return seen

    def run_workload(self, jobs: List[Job]) -> ControllerReport:
        """Release each job at its ``released_at`` and run to completion."""
        return run_jobs(self.env.sim, self.start, jobs)


__all__ = ["WorkflowOffloadRunner", "is_phase_shaped"]
