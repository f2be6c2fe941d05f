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

from typing import Any, Dict, Generator, List, Optional

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job, JobResult
from repro.core.controller import Environment, JobRunner
from repro.core.partitioning import Partition
from repro.serverless.function import FunctionSpec
from repro.serverless.retry import RetryPolicy
from repro.serverless.workflow import (
    WorkflowDefinition,
    WorkflowEngine,
    WorkflowStep,
)
from repro.sim import Event


def _has_cloud_ancestor(app: AppGraph, partition: Partition) -> Dict[str, bool]:
    """Whether each component runs downstream of a cloud component."""
    has_cloud_ancestor: Dict[str, bool] = {}
    for name in app.component_names:  # topological
        has_cloud_ancestor[name] = any(
            partition.is_cloud(p) or has_cloud_ancestor[p]
            for p in app.predecessors(name)
        )
    return has_cloud_ancestor


def is_phase_shaped(app: AppGraph, partition: Partition) -> bool:
    """True when no local component sits *between* cloud components.

    Formally: no local component has both a cloud ancestor and a cloud
    descendant.  Under that condition the cloud side can run as one
    uninterrupted server-side workflow.
    """
    partition.validate(app)
    # Such a component exists exactly when a cloud component has a local
    # predecessor with a cloud ancestor: the last local component on the
    # path to the cloud descendant is one.
    downstream = _has_cloud_ancestor(app, partition)
    return not any(
        partition.is_cloud(f.dst)
        and not partition.is_cloud(f.src)
        and downstream[f.src]
        for f in app.flows
    )


class WorkflowOffloadRunner(JobRunner):
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
        # The phases are fixed with the partition: a local component runs
        # in the prologue unless it has a cloud ancestor.  Phase-shaped,
        # every flow into the cloud leaves the prologue and every flow out
        # of it enters the epilogue.
        cloud = set(self.cloud_components)
        downstream = _has_cloud_ancestor(app, partition)
        local = [n for n in app.component_names if n not in cloud]
        self._prologue = [n for n in local if not downstream[n]]
        self._epilogue = [n for n in local if downstream[n]]
        cut = [
            (f.src, f.dst) for f in app.flows
            if (f.src in cloud) != (f.dst in cloud)
        ]
        self._uploads = [(src, dst) for src, dst in cut if dst in cloud]
        self._downloads = [(src, dst) for src, dst in cut if src in cloud]
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

    def _local_phase(
        self,
        job: Job,
        members: List[str],
        finish_times: Dict[str, float],
    ) -> Generator[Event, Any, float]:
        """Run a set of local components respecting their mutual edges.

        Returns the energy spent.  (Edges to/from the cloud phase are
        handled by the caller.)  One process per component, not
        :func:`~repro.apps.graph.run_dag`'s chains: chain fusion would
        queue overlapping jobs' tied UE requests in another order and so
        move results (see ``docs/modeling.md``)."""
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
        energy_model = self.env.ue.spec.energy
        energy_j = 0.0
        energy_breakdown: Dict[str, float] = {}
        cost_usd = 0.0
        finish_times: Dict[str, float] = {}

        def charge(kind: str, joules: float) -> None:
            nonlocal energy_j
            energy_j += joules
            energy_breakdown[kind] = energy_breakdown.get(kind, 0.0) + joules

        charge(
            "compute",
            (yield from self._local_phase(job, self._prologue, finish_times)),
        )

        if self.definition is not None:
            # Upload every cut edge into the cloud region.
            for src, dst in self._uploads:
                result = yield from self.env.ue.radio_body(
                    job.flow_bytes(src, dst), self.env.uplink, transmit=True
                )
                charge("tx", energy_model.transmit_energy(result.radio_seconds))

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
            for src, dst in self._downloads:
                result = yield from self.env.ue.radio_body(
                    job.flow_bytes(src, dst), self.env.downlink, transmit=False
                )
                charge("rx", energy_model.receive_energy(result.radio_seconds))

        charge(
            "compute",
            (yield from self._local_phase(job, self._epilogue, finish_times)),
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


__all__ = ["WorkflowOffloadRunner", "is_phase_shaped"]
