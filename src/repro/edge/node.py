"""A provisioned edge node with always-on cost and bounded capacity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.metrics import MetricRegistry
from repro.sim import Event, Resource, Simulator


@dataclass(frozen=True)
class EdgeNodeSpec:
    """Hardware and pricing of one edge node.

    ``hourly_cost_usd`` models the capital+operations cost of keeping the
    node provisioned; the default matches small dedicated-host pricing
    (~$0.20/h for a 4-core box), which is the infrastructure burden the
    paper's non-time-critical argument avoids.
    """

    name: str = "edge"
    cycles_per_second: float = 3.0e9
    cores: int = 4
    hourly_cost_usd: float = 0.20

    def __post_init__(self) -> None:
        if self.cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be > 0")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.hourly_cost_usd < 0:
            raise ValueError("hourly cost must be >= 0")

    def execution_time(self, work_gcycles: float) -> float:
        """Seconds one core needs for ``work_gcycles``."""
        if work_gcycles < 0:
            raise ValueError("work must be >= 0")
        return work_gcycles * 1e9 / self.cycles_per_second


@dataclass(frozen=True)
class EdgeExecution:
    """Record of one execution on the edge node."""

    work_gcycles: float
    submitted_at: float
    started_at: float
    finished_at: float

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for a free core."""
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        """End-to-end seconds on the node."""
        return self.finished_at - self.submitted_at


class EdgeNode:
    """An always-on compute node near the access network."""

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[EdgeNodeSpec] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else EdgeNodeSpec()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._cpu = Resource(sim, capacity=self.spec.cores)
        self._provisioned_since = sim.now
        self._busy_core_seconds = 0.0
        self._executions: List[EdgeExecution] = []

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a core."""
        return self._cpu.queue_length

    def estimate_execution_time(self, work_gcycles: float) -> float:
        """Uncontended single-core runtime estimate."""
        return self.spec.execution_time(work_gcycles)

    def execute(self, work_gcycles: float) -> Event:
        """Run work on the node; process event yields :class:`EdgeExecution`."""
        return self.sim.spawn(
            self.execute_body(work_gcycles), name=f"{self.spec.name}.exec"
        )

    def execute_body(
        self, work_gcycles: float
    ) -> Generator[Event, object, EdgeExecution]:
        """Run ``work_gcycles`` on one of the node's cores.

        Delegate into it with ``yield from``; it returns an
        :class:`EdgeExecution`.  Queues (first come, first served) when
        every core is busy.
        """
        submitted = self.sim.now
        request = self._cpu.request()
        yield request
        started = self.sim.now
        try:
            duration = self.spec.execution_time(work_gcycles)
            yield self.sim.timeout(duration)
        finally:
            self._cpu.release(request)
        record = EdgeExecution(
            work_gcycles=work_gcycles,
            submitted_at=submitted,
            started_at=started,
            finished_at=self.sim.now,
        )
        self._busy_core_seconds += record.finished_at - record.started_at
        self._executions.append(record)
        self.metrics.counter(f"{self.spec.name}.jobs").increment()
        self.metrics.summary(f"{self.spec.name}.latency_s").observe(record.latency)
        return record

    # -- accounting -----------------------------------------------------------

    @property
    def executions(self) -> List[EdgeExecution]:
        """Completed executions in completion order."""
        return list(self._executions)

    def provisioned_cost(self, until: Optional[float] = None) -> float:
        """Bill for keeping the node on from provisioning until ``until``.

        This accrues regardless of utilisation — the structural difference
        from serverless pay-per-use.
        """
        end = self.sim.now if until is None else until
        if end < self._provisioned_since:
            raise ValueError("billing end precedes provisioning time")
        hours = (end - self._provisioned_since) / 3600.0
        return hours * self.spec.hourly_cost_usd

    def utilisation(self, until: Optional[float] = None) -> float:
        """Busy-core-seconds over provisioned core-seconds, in [0, 1]."""
        end = self.sim.now if until is None else until
        wall = max(end - self._provisioned_since, 0.0)
        if wall == 0:
            return 0.0
        return min(self._busy_core_seconds / (wall * self.spec.cores), 1.0)


__all__ = ["EdgeExecution", "EdgeNode", "EdgeNodeSpec"]
