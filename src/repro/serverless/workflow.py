"""Cloud-side workflow orchestration (Step-Functions class).

The controller drives cloud components one invocation at a time, which
is fine when the UE coordinates anyway.  A managed *workflow* instead
executes a whole DAG of functions server-side: the orchestrator charges
per state transition and adds a small scheduling latency, but needs no
coordinator between steps — the natural deployment for a fully-offloaded
partition (the abstract's "appropriate deployment of partitions").

Pricing follows AWS Step Functions standard workflows (2022:
$25 per million state transitions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps.dag import find_cycle, topological_order
from repro.serverless.function import Invocation, InvocationRequest
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.retry import RetryPolicy, invoke_with_retries
from repro.sim import Event, Simulator
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class WorkflowStep:
    """One state in a workflow: a function plus its upstream steps."""

    name: str
    function: str
    depends_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("step name must be non-empty")
        if self.name in self.depends_on:
            raise ValueError(f"step {self.name!r} depends on itself")


class WorkflowDefinition:
    """A validated DAG of steps."""

    def __init__(self, name: str, steps: Sequence[WorkflowStep]) -> None:
        if not steps:
            raise ValueError(f"workflow {name!r} has no steps")
        self.name = name
        self._steps: Dict[str, WorkflowStep] = {}
        edges: List[Tuple[str, str]] = []
        for step in steps:
            if step.name in self._steps:
                raise ValueError(f"duplicate step {step.name!r}")
            self._steps[step.name] = step
        for step in steps:
            for upstream in step.depends_on:
                if upstream not in self._steps:
                    raise KeyError(
                        f"step {step.name!r} depends on unknown {upstream!r}"
                    )
                edges.append((upstream, step.name))
        order = topological_order(self._steps, edges)
        if order is None:
            cycle = find_cycle(self._steps, edges)
            raise ValueError(f"workflow {name!r} contains a cycle: {cycle}")
        self._order: List[str] = order

    @property
    def step_names(self) -> List[str]:
        """Step names in topological order."""
        return list(self._order)

    def step(self, name: str) -> WorkflowStep:
        """Look up one step."""
        if name not in self._steps:
            raise KeyError(f"unknown step {name!r} in workflow {self.name!r}")
        return self._steps[name]

    def __len__(self) -> int:
        return len(self._steps)

    @property
    def transition_count(self) -> int:
        """Billable state transitions of one execution.

        Step Functions bills every state entry plus the start/end
        bookkeeping — modelled as steps + 2.
        """
        return len(self._steps) + 2


@dataclass(frozen=True)
class WorkflowExecution:
    """Completion record of one workflow run."""

    workflow: str
    started_at: float
    finished_at: float
    invocations: Dict[str, Invocation]
    orchestration_cost_usd: float

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds of the whole execution."""
        return self.finished_at - self.started_at

    @property
    def compute_cost_usd(self) -> float:
        """Sum of the member invocations' bills."""
        return sum(i.cost for i in self.invocations.values())

    @property
    def total_cost_usd(self) -> float:
        """Compute plus orchestration."""
        return self.compute_cost_usd + self.orchestration_cost_usd


class WorkflowEngine:
    """Executes workflow definitions over a serverless platform.

    Parameters
    ----------
    price_per_transition:
        USD per state transition (Step Functions 2022: 2.5e-5).
    transition_latency_s:
        Orchestrator scheduling delay paid before each step starts.
    retry_policy:
        Applied per step; workflows retry failed states natively.
    """

    def __init__(
        self,
        sim: Simulator,
        platform: ServerlessPlatform,
        price_per_transition: float = 2.5e-5,
        transition_latency_s: float = 0.02,
        retry_policy: Optional[RetryPolicy] = None,
        rng: Optional[RngStream] = None,
    ) -> None:
        if price_per_transition < 0:
            raise ValueError("transition price must be >= 0")
        if transition_latency_s < 0:
            raise ValueError("transition latency must be >= 0")
        self.sim = sim
        self.platform = platform
        self.price_per_transition = price_per_transition
        self.transition_latency_s = transition_latency_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.rng = rng
        self._executions: List[WorkflowExecution] = []

    def validate(self, definition: WorkflowDefinition) -> None:
        """Check every step's function is deployed (deploy-time gate)."""
        missing = [
            definition.step(name).function
            for name in definition.step_names
            if not self.platform.is_deployed(definition.step(name).function)
        ]
        if missing:
            raise KeyError(
                f"workflow {definition.name!r} references undeployed "
                f"functions: {sorted(set(missing))}"
            )

    def run(
        self,
        definition: WorkflowDefinition,
        work_by_step: Dict[str, float],
    ) -> Event:
        """Execute the workflow; the process event yields a
        :class:`WorkflowExecution`.

        ``work_by_step`` maps step name → gigacycles for this execution.
        """
        self.validate(definition)
        missing = set(definition.step_names) - set(work_by_step)
        if missing:
            raise ValueError(f"work missing for steps {sorted(missing)}")
        return self.sim.spawn(
            self._run_proc(definition, work_by_step),
            name=f"workflow.{definition.name}",
        )

    def _run_proc(
        self, definition: WorkflowDefinition, work_by_step: Dict[str, float]
    ) -> Generator[Event, object, WorkflowExecution]:
        started = self.sim.now
        step_done: Dict[str, Event] = {
            name: self.sim.event() for name in definition.step_names
        }
        invocations: Dict[str, Invocation] = {}

        def step_proc(step: WorkflowStep) -> Generator[Event, object, None]:
            if step.depends_on:
                yield self.sim.all_of([step_done[d] for d in step.depends_on])
            yield self.sim.timeout(self.transition_latency_s)
            outcome = yield invoke_with_retries(
                self.platform,
                InvocationRequest(
                    function=step.function,
                    work_gcycles=work_by_step[step.name],
                    tag=f"wf.{definition.name}.{step.name}",
                ),
                policy=self.retry_policy,
                rng=self.rng,
            )
            invocations[step.name] = outcome.invocation
            step_done[step.name].succeed(None)

        processes = [
            self.sim.spawn(step_proc(definition.step(name)), name=f"wf.{name}")
            for name in definition.step_names
        ]
        yield self.sim.all_of(processes)

        execution = WorkflowExecution(
            workflow=definition.name,
            started_at=started,
            finished_at=self.sim.now,
            invocations=invocations,
            orchestration_cost_usd=(
                definition.transition_count * self.price_per_transition
            ),
        )
        self._executions.append(execution)
        return execution

    @property
    def executions(self) -> List[WorkflowExecution]:
        """Completed executions in completion order."""
        return list(self._executions)

    @property
    def total_orchestration_cost(self) -> float:
        """USD billed for state transitions across all executions."""
        return sum(e.orchestration_cost_usd for e in self._executions)


def workflow_from_partition(
    app_name: str,
    cloud_components: Sequence[str],
    predecessors: Dict[str, Sequence[str]],
    function_name: "callable",
) -> WorkflowDefinition:
    """Build a workflow for the cloud side of a partition.

    ``predecessors`` maps each cloud component to its upstream *cloud*
    components (cut edges are the controller's business); ``function_name``
    maps component → deployed function name.
    """
    steps = [
        WorkflowStep(
            name=component,
            function=function_name(component),
            depends_on=tuple(
                p for p in predecessors.get(component, ()) if p in cloud_components
            ),
        )
        for component in cloud_components
    ]
    return WorkflowDefinition(f"{app_name}.cloudside", steps)


__all__ = [
    "WorkflowDefinition",
    "WorkflowEngine",
    "WorkflowExecution",
    "WorkflowStep",
    "workflow_from_partition",
]
