"""Trivial and naive placement baselines."""

from __future__ import annotations

from typing import Optional

from repro.apps.graph import AppGraph
from repro.core.controller import Environment, OffloadController
from repro.core.partitioning import (
    FixedPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    Partitioner,
)
from repro.core.scheduler import Scheduler
from repro.sim.rng import RngStream


class RandomPartitioner(Partitioner):
    """Assigns each offloadable component to the cloud with probability p."""

    name = "random"

    def __init__(self, rng: RngStream, offload_probability: float = 0.5) -> None:
        if not 0.0 <= offload_probability <= 1.0:
            raise ValueError("offload probability must be in [0, 1]")
        self.rng = rng
        self.offload_probability = offload_probability

    def partition(self, ctx: PartitionContext) -> Partition:
        cloud = frozenset(
            name
            for name in ctx.app.offloadable_names()
            if self.rng.bernoulli(self.offload_probability)
        )
        return Partition(ctx.app.name, cloud)


class MyopicLatencyPartitioner(Partitioner):
    """Per-component rule: offload iff remote time + own transfers < local time.

    Considers each component in isolation — it charges every incident
    edge as if it were cut, ignoring that co-located neighbours make
    those transfers free.  The gap to the exact partitioners quantifies
    the value of whole-graph optimisation.
    """

    name = "myopic"
    pure = True

    def partition(self, ctx: PartitionContext) -> Partition:
        cloud = set()
        for name in ctx.app.offloadable_names():
            local_s = ctx.local_duration(name)
            remote_s = ctx.cloud_duration(name)
            for pred in ctx.app.predecessors(name):
                nbytes = ctx.app.flow(pred, name).bytes_for(ctx.input_mb)
                remote_s += ctx.uplink_time(nbytes)
            for succ in ctx.app.successors(name):
                nbytes = ctx.app.flow(name, succ).bytes_for(ctx.input_mb)
                remote_s += ctx.downlink_time(nbytes)
            if remote_s < local_s:
                cloud.add(name)
        return Partition(ctx.app.name, frozenset(cloud))


def local_only_controller(
    env: Environment,
    app: AppGraph,
    scheduler: Optional[Scheduler] = None,
    weights: Optional[ObjectiveWeights] = None,
) -> OffloadController:
    """A controller that pins everything to the UE."""
    return OffloadController(
        env=env,
        app=app,
        partitioner=FixedPartitioner(Partition.local_only(app)),
        scheduler=scheduler,
        weights=weights,
    )


def full_offload_controller(
    env: Environment,
    app: AppGraph,
    scheduler: Optional[Scheduler] = None,
    weights: Optional[ObjectiveWeights] = None,
) -> OffloadController:
    """A controller that ships every offloadable component to the cloud."""
    return OffloadController(
        env=env,
        app=app,
        partitioner=FixedPartitioner(Partition.full_offload(app)),
        scheduler=scheduler,
        weights=weights,
    )


__all__ = [
    "MyopicLatencyPartitioner",
    "RandomPartitioner",
    "full_offload_controller",
    "local_only_controller",
]
