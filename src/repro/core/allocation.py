"""Serverless resource allocation (contribution C2).

Serverless platforms expose exactly one performance knob per function: the
memory size, which also scales CPU.  Because billed cost is
``duration × memory`` while duration falls at most linearly (and flattens
once the function's serial fraction dominates), cost-vs-memory is
U-shaped and latency-vs-memory is L-shaped — picking the size is a real
optimisation problem (cf. AWS Lambda Power Tuning, COSE, Sizeless).

:class:`MemoryAllocator` answers the three practical questions:

* the **cheapest** size for a demand profile;
* the **fastest** size;
* the cheapest size meeting a **latency SLO** (the paper's
  non-time-critical sweet spot: an SLO loose enough that the cheapest
  size qualifies);

plus :meth:`MemoryAllocator.allocate_app` which sizes every component of a
partitioned application, and :func:`pareto_frontier` for the cost/latency
trade-off curve benchmark T1 plots.

Ablation A3 compares the default convexity-aware scan against exhaustive
and coarse-grid strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.graph import AppGraph
from repro.core.demand import DemandModel
from repro.core.partitioning import Partition
from repro.serverless.billing import BillingModel
from repro.serverless.function import (
    STANDARD_MEMORY_TIERS_MB,
    FunctionSpec,
    execution_time,
)


@dataclass(frozen=True)
class AllocationDecision:
    """The sizing chosen for one function."""

    component: str
    memory_mb: float
    expected_duration_s: float
    expected_cost_usd: float
    probes: int = 0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory must be > 0")


class AllocationCurvePoint(NamedTuple):
    """One (memory, duration, cost) sample of a function's trade-off curve."""

    memory_mb: float
    duration_s: float
    cost_usd: float


class MemoryAllocator:
    """Chooses memory sizes for serverless functions.

    Parameters
    ----------
    billing:
        The platform's pricing model.
    tiers_mb:
        The discrete memory sizes the platform offers.
    strategy:
        ``"scan"`` evaluates every tier (exact);
        ``"convex"`` walks tiers in increasing order and stops one step
        after cost starts rising — exact when the cost curve is unimodal
        in memory, which it is under the Amdahl duration model;
        ``"coarse"`` probes every ``coarse_stride``-th tier then refines
        around the best (the cheap heuristic real tuners use).
    """

    def __init__(
        self,
        billing: Optional[BillingModel] = None,
        tiers_mb: Sequence[float] = STANDARD_MEMORY_TIERS_MB,
        strategy: str = "scan",
        coarse_stride: int = 3,
        cost_tolerance: float = 0.02,
    ) -> None:
        if not tiers_mb:
            raise ValueError("at least one memory tier is required")
        if any(t <= 0 for t in tiers_mb):
            raise ValueError("memory tiers must be > 0")
        if strategy not in ("scan", "convex", "coarse"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if coarse_stride < 1:
            raise ValueError("coarse stride must be >= 1")
        if cost_tolerance < 0:
            raise ValueError("cost tolerance must be >= 0")
        self.billing = billing if billing is not None else BillingModel()
        self.tiers_mb = tuple(sorted(set(tiers_mb)))
        self.strategy = strategy
        self.coarse_stride = coarse_stride
        self.cost_tolerance = cost_tolerance
        #: Solved :meth:`allocate_app` decisions by (app, cloud demands,
        #: latency SLO); see there.
        self._allocated: Dict[
            Tuple[AppGraph, Tuple[Tuple[str, float], ...], float],
            Dict[str, AllocationDecision],
        ] = {}

    # -- single-function decisions ---------------------------------------

    def curve(
        self, work_gcycles: float, parallel_fraction: float = 0.0
    ) -> List[AllocationCurvePoint]:
        """The full (memory, duration, cost) trade-off curve."""
        points = []
        for memory in self.tiers_mb:
            duration = execution_time(work_gcycles, memory, parallel_fraction)
            cost = self.billing.invocation_cost(duration, memory).total
            points.append(AllocationCurvePoint(memory, duration, cost))
        return points

    def _point(
        self, memory: float, work_gcycles: float, parallel_fraction: float
    ) -> AllocationCurvePoint:
        duration = execution_time(work_gcycles, memory, parallel_fraction)
        return AllocationCurvePoint(
            memory, duration, self.billing.invocation_cost(duration, memory).total
        )

    def cheapest(
        self,
        component: str,
        work_gcycles: float,
        parallel_fraction: float = 0.0,
        latency_slo_s: float = math.inf,
        min_memory_mb: float = 0.0,
    ) -> AllocationDecision:
        """The cheapest size whose duration meets ``latency_slo_s``.

        Implements the Lambda-Power-Tuning recommendation: under
        CPU-proportional scaling the cost of CPU-bound work is flat up to
        one full vCPU, so within the cost-minimal band (costs within
        ``cost_tolerance`` of the minimum) the *fastest* tier wins — the
        speedup is free.  ``min_memory_mb`` is the function's working-set
        floor.  Raises ``ValueError`` when no tier satisfies the SLO.
        """
        eligible = [m for m in self.tiers_mb if m >= min_memory_mb]
        if not eligible:
            raise ValueError(
                f"{component}: no memory tier >= the {min_memory_mb} MB floor"
            )

        probes = 0
        points: List[AllocationCurvePoint] = []
        if self.strategy == "scan":
            for memory in eligible:
                probes += 1
                points.append(self._point(memory, work_gcycles, parallel_fraction))
        elif self.strategy == "coarse":
            coarse = list(eligible[:: self.coarse_stride])
            if eligible[-1] not in coarse:
                coarse.append(eligible[-1])
            coarse_points = []
            for memory in coarse:
                probes += 1
                coarse_points.append(
                    self._point(memory, work_gcycles, parallel_fraction)
                )
            feasible = [p for p in coarse_points if p.duration_s <= latency_slo_s]
            pool = feasible or coarse_points
            anchor = self._select(pool, latency_slo_s).memory_mb
            idx = eligible.index(anchor)
            lo = max(idx - self.coarse_stride + 1, 0)
            hi = min(idx + self.coarse_stride, len(eligible))
            refined = {p.memory_mb: p for p in coarse_points}
            for memory in eligible[lo:hi]:
                if memory not in refined:
                    probes += 1
                    refined[memory] = self._point(
                        memory, work_gcycles, parallel_fraction
                    )
            points = list(refined.values())
        else:  # convex walk: stop once cost has clearly left the flat band
            band_floor = math.inf
            rising = 0
            feasible_seen = False
            for memory in eligible:
                probes += 1
                point = self._point(memory, work_gcycles, parallel_fraction)
                points.append(point)
                feasible_seen = feasible_seen or point.duration_s <= latency_slo_s
                band = band_floor * (1.0 + self.cost_tolerance)
                if point.cost_usd > band:
                    rising += 1
                    # Never stop before an SLO-feasible tier has appeared:
                    # a tight SLO makes the cheap small tiers infeasible
                    # and only larger (pricier) tiers qualify.
                    if rising >= 2 and feasible_seen:
                        break
                else:
                    rising = 0
                band_floor = min(band_floor, point.cost_usd)

        feasible_points = [p for p in points if p.duration_s <= latency_slo_s]
        if not feasible_points:
            fastest = self._point(eligible[-1], work_gcycles, parallel_fraction)
            raise ValueError(
                f"{component}: no memory tier meets the {latency_slo_s}s SLO "
                f"(fastest tier gives {fastest.duration_s:.3f}s)"
            )
        best = self._select(feasible_points, latency_slo_s)
        return AllocationDecision(
            component=component,
            memory_mb=best.memory_mb,
            expected_duration_s=best.duration_s,
            expected_cost_usd=best.cost_usd,
            probes=probes,
        )

    def _select(
        self, points: List[AllocationCurvePoint], latency_slo_s: float
    ) -> AllocationCurvePoint:
        """Cheapest point, breaking near-ties toward the fastest tier."""
        min_cost = min(p.cost_usd for p in points)
        band = [
            p
            for p in points
            if p.cost_usd <= min_cost * (1.0 + self.cost_tolerance) + 1e-15
        ]
        return min(band, key=lambda p: (p.duration_s, p.cost_usd, p.memory_mb))

    def fastest(
        self,
        component: str,
        work_gcycles: float,
        parallel_fraction: float = 0.0,
    ) -> AllocationDecision:
        """The duration-minimising size (ties broken toward cheaper)."""
        points = self.curve(work_gcycles, parallel_fraction)
        best = min(points, key=lambda p: (p.duration_s, p.cost_usd))
        return AllocationDecision(
            component=component,
            memory_mb=best.memory_mb,
            expected_duration_s=best.duration_s,
            expected_cost_usd=best.cost_usd,
            probes=len(points),
        )

    # -- application-level allocation ----------------------------------------

    def allocate_app(
        self,
        app: AppGraph,
        partition: Partition,
        demand: DemandModel,
        input_mb: float,
        latency_slo_s: float = math.inf,
    ) -> Dict[str, AllocationDecision]:
        """Size every cloud-side component of a partitioned application.

        The SLO, when finite, is budgeted across the cloud components in
        proportion to their single-vCPU durations — a simple, effective
        split because duration curves share their shape.

        Decisions are memoised by ``(app, ((name, predicted demand) for
        each cloud component), latency_slo_s)``, and a hit returns a
        fresh dict of the same frozen decisions.  The memo is exact: the
        demand model and ``input_mb`` enter only through those
        predictions, the app's components are immutable, and
        :meth:`cheapest` reads nothing of the allocator but its
        construction-time tiers, strategy and billing.
        """
        cloud_components = [
            name for name in app.component_names if partition.is_cloud(name)
        ]
        if not cloud_components:
            return {}
        demands = {
            name: demand.predict(name, input_mb) for name in cloud_components
        }
        key = (app, tuple(demands.items()), latency_slo_s)
        decisions = self._allocated.get(key)
        if decisions is None:
            decisions = self._allocated[key] = self._allocate(
                app, cloud_components, demands, latency_slo_s
            )
        return dict(decisions)

    def _allocate(
        self,
        app: AppGraph,
        cloud_components: List[str],
        demands: Dict[str, float],
        latency_slo_s: float,
    ) -> Dict[str, AllocationDecision]:
        """The uncached body of :meth:`allocate_app`."""
        budgets: Dict[str, float] = {}
        if math.isinf(latency_slo_s):
            budgets = {name: math.inf for name in cloud_components}
        else:
            reference = {
                name: execution_time(
                    demands[name], 1769.0, app.component(name).parallel_fraction
                )
                for name in cloud_components
            }
            total = sum(reference.values())
            for name in cloud_components:
                share = reference[name] / total if total > 0 else 1.0 / len(
                    cloud_components
                )
                budgets[name] = latency_slo_s * share
        decisions = {}
        for name in cloud_components:
            spec = app.component(name)
            decisions[name] = self.cheapest(
                component=name,
                work_gcycles=demands[name],
                parallel_fraction=spec.parallel_fraction,
                latency_slo_s=budgets[name],
                min_memory_mb=spec.min_memory_mb,
            )
        return decisions

    def function_specs(
        self,
        app: AppGraph,
        decisions: Dict[str, AllocationDecision],
        name_prefix: str = "",
    ) -> List[FunctionSpec]:
        """Materialise platform :class:`FunctionSpec`\\ s from decisions."""
        specs = []
        for component_name, decision in sorted(decisions.items()):
            component = app.component(component_name)
            specs.append(
                FunctionSpec(
                    name=f"{name_prefix}{app.name}.{component_name}",
                    memory_mb=decision.memory_mb,
                    package_mb=component.package_mb,
                    parallel_fraction=component.parallel_fraction,
                )
            )
        return specs


def pareto_frontier(
    points: Iterable[AllocationCurvePoint],
) -> List[AllocationCurvePoint]:
    """The non-dominated (duration, cost) subset, sorted by duration."""
    pool = sorted(points, key=lambda p: (p.duration_s, p.cost_usd))
    frontier: List[AllocationCurvePoint] = []
    best_cost = math.inf
    for point in pool:
        if point.cost_usd < best_cost - 1e-15:
            frontier.append(point)
            best_cost = point.cost_usd
    return frontier


__all__ = [
    "AllocationCurvePoint",
    "AllocationDecision",
    "MemoryAllocator",
    "pareto_frontier",
]
