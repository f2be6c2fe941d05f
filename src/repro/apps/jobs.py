"""Jobs: one execution of an application over a concrete input.

A :class:`Job` fixes the input size (which scales component work and edge
data via the graph's per-MB coefficients), the release time, and the
deadline.  Non-time-criticality is expressed as *slack*: the deadline sits
far beyond the best-case makespan, and schedulers are free to exploit the
gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

from repro.apps.graph import AppGraph

_job_counter = itertools.count()


@dataclass(frozen=True)
class Job:
    """One unit of end-to-end application work.

    Parameters
    ----------
    app:
        The application graph being executed.
    input_mb:
        Input size in megabytes; scales work and data flows.
    released_at:
        Simulation time the job becomes available.
    deadline:
        Absolute completion deadline (``inf`` = pure best effort).
    job_id:
        Auto-assigned unique id when omitted.
    """

    app: AppGraph
    input_mb: float = 1.0
    released_at: float = 0.0
    deadline: float = math.inf
    job_id: int = field(default_factory=lambda: next(_job_counter))

    def __post_init__(self) -> None:
        if self.input_mb < 0:
            raise ValueError("input size must be >= 0")
        if self.deadline < self.released_at:
            raise ValueError(
                f"deadline {self.deadline} precedes release {self.released_at}"
            )

    @property
    def slack(self) -> float:
        """Seconds between release and deadline."""
        return self.deadline - self.released_at

    def component_work(self, name: str) -> float:
        """Demand of one component for this job, in gigacycles."""
        return self.app.component(name).work_for(self.input_mb)

    def flow_bytes(self, src: str, dst: str) -> float:
        """Bytes crossing one edge for this job."""
        return self.app.flow(src, dst).bytes_for(self.input_mb)

    def total_work(self) -> float:
        """Total demand across all components, in gigacycles."""
        return self.app.total_work(self.input_mb)

    def with_deadline(self, deadline: float) -> "Job":
        """A copy of this job with a different absolute deadline."""
        return Job(
            app=self.app,
            input_mb=self.input_mb,
            released_at=self.released_at,
            deadline=deadline,
            job_id=self.job_id,
        )


class _JobResultFields(NamedTuple):
    job: Job
    started_at: float
    finished_at: float
    ue_energy_j: float
    cloud_cost_usd: float
    component_finish_times: Dict[str, float]
    #: Per-activity decomposition of ``ue_energy_j`` (keys: "compute",
    #: "tx", "rx", "idle", "sleep"); empty when the runner predates it.
    energy_breakdown: Dict[str, float]


class JobResult(_JobResultFields):
    """Completion record of one job.

    Either dict left out defaults to a fresh empty dict, never one
    shared between results.
    """

    __slots__ = ()

    def __new__(
        cls,
        job: Job,
        started_at: float,
        finished_at: float,
        ue_energy_j: float,
        cloud_cost_usd: float,
        component_finish_times: Optional[Dict[str, float]] = None,
        energy_breakdown: Optional[Dict[str, float]] = None,
    ) -> "JobResult":
        return tuple.__new__(cls, (
            job, started_at, finished_at, ue_energy_j, cloud_cost_usd,
            {} if component_finish_times is None else component_finish_times,
            {} if energy_breakdown is None else energy_breakdown,
        ))

    def breakdown_total(self) -> float:
        """Sum of the breakdown entries (equals ``ue_energy_j`` when set)."""
        return sum(self.energy_breakdown.values())

    @property
    def makespan(self) -> float:
        """Seconds from start of execution to completion."""
        return self.finished_at - self.started_at

    @property
    def response_time(self) -> float:
        """Seconds from job release to completion (includes any deferral)."""
        return self.finished_at - self.job.released_at

    @property
    def met_deadline(self) -> bool:
        """True when the job finished by its deadline."""
        return self.finished_at <= self.job.deadline

    @property
    def lateness(self) -> float:
        """Positive when late, negative when early."""
        return self.finished_at - self.job.deadline


__all__ = ["Job", "JobResult"]
