"""Code partitioning between UE and cloud (contribution C3).

A *partition* assigns every component of an application graph to the UE or
to the serverless cloud, respecting pinned (non-offloadable) components.
The quality of a partition is scored on three axes — end-to-end latency,
UE energy, and cloud cost — combined through :class:`ObjectiveWeights`.

Two latency models coexist, as in the MAUI/CloneCloud lineage:

* the **serialized** model (components execute one after another; cut
  edges add their transfer time) is *separable* — a sum of per-node and
  per-edge terms — which makes exact optimisation tractable:
  :class:`MinCutPartitioner` solves it optimally for arbitrary graphs via
  a max-flow reduction, and :class:`TreeDPPartitioner` via dynamic
  programming on trees;
* the **makespan** model (DAG critical path with parallel execution) is
  what :func:`evaluate_partition` reports for honesty, and what
  :class:`ExhaustivePartitioner` can optimise directly on small graphs.

The serialized model is exact for linear pipelines and conservative
(an upper bound) elsewhere — the right bias for deadline-sensitive
planning.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.apps.graph import AppGraph
from repro.device.energy import EnergyModel
from repro.serverless.billing import BillingModel
from repro.serverless.function import execution_time
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative importance of the three objective axes.

    Units: ``latency_weight`` per second, ``energy_weight`` per joule,
    ``cost_weight`` per USD.  The non-time-critical presets down-weight
    latency dramatically — that is the paper's central lever.
    """

    latency_weight: float = 1.0
    energy_weight: float = 0.1
    cost_weight: float = 100.0

    def __post_init__(self) -> None:
        if min(self.latency_weight, self.energy_weight, self.cost_weight) < 0:
            raise ValueError("objective weights must be >= 0")

    @staticmethod
    def interactive() -> "ObjectiveWeights":
        """A user is waiting: latency dominates."""
        return ObjectiveWeights(latency_weight=10.0, energy_weight=0.5, cost_weight=10.0)

    @staticmethod
    def non_time_critical() -> "ObjectiveWeights":
        """Nobody is waiting: minimise energy and dollars, not seconds."""
        return ObjectiveWeights(latency_weight=0.01, energy_weight=1.0, cost_weight=1000.0)

    def combine(self, latency_s: float, energy_j: float, cost_usd: float) -> float:
        """Scalarise one (latency, energy, cost) triple."""
        return (
            self.latency_weight * latency_s
            + self.energy_weight * energy_j
            + self.cost_weight * cost_usd
        )


@dataclass(frozen=True)
class Partition:
    """An assignment of components: ``cloud`` names run remotely."""

    app_name: str
    cloud: FrozenSet[str]

    @staticmethod
    def local_only(app: AppGraph) -> "Partition":
        """Everything stays on the UE."""
        return Partition(app.name, frozenset())

    @staticmethod
    def full_offload(app: AppGraph) -> "Partition":
        """Every offloadable component goes to the cloud."""
        return Partition(app.name, frozenset(app.offloadable_names()))

    def is_cloud(self, component: str) -> bool:
        """True when ``component`` is assigned to the cloud."""
        return component in self.cloud

    def validate(self, app: AppGraph) -> None:
        """Raise when the assignment is inconsistent with the graph."""
        unknown = self.cloud - set(app.component_names)
        if unknown:
            raise ValueError(f"partition references unknown components {sorted(unknown)}")
        pinned = self.cloud & set(app.pinned_names())
        if pinned:
            raise ValueError(
                f"partition offloads non-offloadable components {sorted(pinned)}"
            )

    def moved(self, component: str) -> "Partition":
        """A copy with one component's side flipped."""
        if component in self.cloud:
            return Partition(self.app_name, self.cloud - {component})
        return Partition(self.app_name, self.cloud | {component})


@dataclass(frozen=True)
class PartitionContext:
    """Everything needed to price a partition.

    ``work`` holds the (predicted) per-component demand in gigacycles —
    the output of :mod:`repro.core.demand`.  ``memory_plan`` gives the
    memory size each component would run at in the cloud — the output of
    :mod:`repro.core.allocation` (defaults apply otherwise).
    """

    app: AppGraph
    input_mb: float
    work: Dict[str, float]
    ue_cycles_per_second: float = 1.2e9
    energy: EnergyModel = EnergyModel()
    billing: BillingModel = BillingModel()
    memory_plan: Dict[str, float] = field(default_factory=dict)
    default_memory_mb: float = 1769.0
    uplink_bps: float = 1.25e6  # 10 Mbit/s
    uplink_latency_s: float = 0.065
    downlink_bps: float = 5.0e6
    downlink_latency_s: float = 0.065
    include_idle_energy: bool = True
    #: USD per GB leaving the cloud (cloud→UE edges); intra-cloud and
    #: uplink ingress are free, as on real providers — which keeps the
    #: objective separable and the min-cut reduction exact.
    egress_price_per_gb: float = 0.0
    weights: ObjectiveWeights = ObjectiveWeights()

    def __post_init__(self) -> None:
        missing = set(self.app.component_names) - set(self.work)
        if missing:
            raise ValueError(f"work estimates missing for {sorted(missing)}")
        if self.ue_cycles_per_second <= 0:
            raise ValueError("UE speed must be > 0")
        if min(self.uplink_bps, self.downlink_bps) <= 0:
            raise ValueError("link rates must be > 0")

    def key(self) -> Tuple[Hashable, ...]:
        """A hashable value, equal exactly when every field is equal.

        Built from every dataclass field in declaration order, with dicts
        turned into sorted item tuples, so a field added later is covered
        without touching this method.  ``app`` compares by identity.
        Equal keys price every partition identically, which is what lets
        :meth:`~repro.core.controller.OffloadController.plan` reuse a
        solved plan.
        """
        return tuple(
            tuple(sorted(value.items())) if isinstance(value, dict) else value
            for value in (getattr(self, name) for name in _CONTEXT_FIELDS)
        )

    # -- per-node terms --------------------------------------------------

    def memory_for(self, component: str) -> float:
        """Planned cloud memory size of one component."""
        return self.memory_plan.get(component, self.default_memory_mb)

    def local_duration(self, component: str) -> float:
        """Seconds on one UE core."""
        return self.work[component] * 1e9 / self.ue_cycles_per_second

    def cloud_duration(self, component: str) -> float:
        """Seconds on the serverless platform at the planned memory."""
        spec = self.app.component(component)
        return execution_time(
            self.work[component],
            self.memory_for(component),
            spec.parallel_fraction,
        )

    def local_energy(self, component: str) -> float:
        """Joules the UE burns computing this component locally."""
        return self.energy.compute_energy(self.local_duration(component))

    def cloud_cost(self, component: str) -> float:
        """USD for one cloud invocation of this component."""
        return self.billing.invocation_cost(
            self.cloud_duration(component), self.memory_for(component)
        ).total

    # -- per-edge terms ----------------------------------------------------

    def uplink_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` UE → cloud."""
        return self.uplink_latency_s + nbytes / self.uplink_bps

    def downlink_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` cloud → UE."""
        return self.downlink_latency_s + nbytes / self.downlink_bps

    def edge_transfer(self, src: str, dst: str, src_cloud: bool, dst_cloud: bool
                      ) -> Tuple[float, float]:
        """(seconds, joules) for one edge given endpoint placements.

        Same-side edges are free: local IPC and intra-cloud traffic are
        orders of magnitude cheaper than the access link (documented
        simplification shared with the MAUI cost model).
        """
        if src_cloud == dst_cloud:
            return 0.0, 0.0
        nbytes = self.app.flow(src, dst).bytes_for(self.input_mb)
        if not src_cloud and dst_cloud:
            seconds = self.uplink_time(nbytes)
            return seconds, self.energy.transmit_energy(seconds)
        seconds = self.downlink_time(nbytes)
        return seconds, self.energy.receive_energy(seconds)

    def edge_money(self, src: str, dst: str, src_cloud: bool, dst_cloud: bool) -> float:
        """USD charged for one edge: egress on cloud→local, else free."""
        if src_cloud and not dst_cloud and self.egress_price_per_gb > 0:
            nbytes = self.app.flow(src, dst).bytes_for(self.input_mb)
            return nbytes / 1e9 * self.egress_price_per_gb
        return 0.0


_CONTEXT_FIELDS = tuple(f.name for f in fields(PartitionContext))


@dataclass(frozen=True)
class PartitionEvaluation:
    """The priced outcome of one partition."""

    partition: Partition
    serialized_latency_s: float
    makespan_s: float
    ue_energy_j: float
    cloud_cost_usd: float
    objective: float

    def dominates(self, other: "PartitionEvaluation") -> bool:
        """Pareto dominance on (makespan, energy, cost)."""
        at_least = (
            self.makespan_s <= other.makespan_s
            and self.ue_energy_j <= other.ue_energy_j
            and self.cloud_cost_usd <= other.cloud_cost_usd
        )
        strictly = (
            self.makespan_s < other.makespan_s
            or self.ue_energy_j < other.ue_energy_j
            or self.cloud_cost_usd < other.cloud_cost_usd
        )
        return at_least and strictly


def evaluate_partition(
    ctx: PartitionContext, partition: Partition
) -> PartitionEvaluation:
    """Price a partition under both latency models.

    The returned ``objective`` scalarises the *serialized* latency (the
    quantity the exact partitioners optimise) with energy and cost.
    """
    partition.validate(ctx.app)
    app = ctx.app

    serialized = 0.0
    energy = 0.0
    cost = 0.0
    node_duration: Dict[str, float] = {}
    for name in app.component_names:
        on_cloud = partition.is_cloud(name)
        duration = ctx.cloud_duration(name) if on_cloud else ctx.local_duration(name)
        node_duration[name] = duration
        serialized += duration
        if on_cloud:
            cost += ctx.cloud_cost(name)
            if ctx.include_idle_energy:
                energy += ctx.energy.idle_energy(duration)
        else:
            energy += ctx.local_energy(name)

    edge_delay: Dict[Tuple[str, str], float] = {}
    for flow in app.flows:
        src_cloud = partition.is_cloud(flow.src)
        dst_cloud = partition.is_cloud(flow.dst)
        seconds, joules = ctx.edge_transfer(
            flow.src, flow.dst, src_cloud, dst_cloud
        )
        edge_delay[(flow.src, flow.dst)] = seconds
        serialized += seconds
        energy += joules
        cost += ctx.edge_money(flow.src, flow.dst, src_cloud, dst_cloud)

    # DAG critical path (parallel execution of independent components).
    finish: Dict[str, float] = {}
    for name in app.component_names:  # already topological
        ready = 0.0
        for pred in app.predecessors(name):
            ready = max(ready, finish[pred] + edge_delay[(pred, name)])
        finish[name] = ready + node_duration[name]
    makespan = max(finish.values()) if finish else 0.0

    objective = ctx.weights.combine(serialized, energy, cost)
    return PartitionEvaluation(
        partition=partition,
        serialized_latency_s=serialized,
        makespan_s=makespan,
        ue_energy_j=energy,
        cloud_cost_usd=cost,
        objective=objective,
    )


class Partitioner(ABC):
    """Interface: produce the best partition for a context."""

    name: str = "partitioner"

    #: True when :meth:`partition` is a function of the context alone (no
    #: randomness, no state carried between calls).  Only then may a
    #: caller reuse one result for every context with the same
    #: :meth:`PartitionContext.key`.
    pure: bool = False

    @abstractmethod
    def partition(self, ctx: PartitionContext) -> Partition:
        """Compute an assignment for ``ctx`` (pinned components respected)."""

    def evaluate(self, ctx: PartitionContext) -> PartitionEvaluation:
        """Partition and price in one call."""
        return evaluate_partition(ctx, self.partition(ctx))


def _node_costs(ctx: PartitionContext, name: str) -> Tuple[float, float]:
    """(cost-if-local, cost-if-cloud) of one node under the weights."""
    weights = ctx.weights
    dur_local = ctx.local_duration(name)
    local = weights.latency_weight * dur_local + weights.energy_weight * ctx.local_energy(name)
    dur_cloud = ctx.cloud_duration(name)
    cloud = (
        weights.latency_weight * dur_cloud
        + weights.cost_weight * ctx.cloud_cost(name)
    )
    if ctx.include_idle_energy:
        cloud += weights.energy_weight * ctx.energy.idle_energy(dur_cloud)
    return local, cloud


def _edge_costs(ctx: PartitionContext, src: str, dst: str) -> Tuple[float, float]:
    """(cost if src local/dst cloud, cost if src cloud/dst local)."""
    weights = ctx.weights
    up_s, up_j = ctx.edge_transfer(src, dst, False, True)
    down_s, down_j = ctx.edge_transfer(src, dst, True, False)
    up = weights.latency_weight * up_s + weights.energy_weight * up_j
    down = (
        weights.latency_weight * down_s
        + weights.energy_weight * down_j
        + weights.cost_weight * ctx.edge_money(src, dst, True, False)
    )
    return up, down


class ExhaustivePartitioner(Partitioner):
    """Enumerates every feasible assignment; the ground-truth optimum.

    ``use_makespan=True`` optimises the full DAG-makespan objective
    instead of the serialized one.  Limited to ``max_offloadable``
    components to keep 2^n enumeration honest.
    """

    name = "exhaustive"
    pure = True

    def __init__(self, use_makespan: bool = False, max_offloadable: int = 18) -> None:
        self.use_makespan = use_makespan
        self.max_offloadable = max_offloadable

    def partition(self, ctx: PartitionContext) -> Partition:
        offloadable = ctx.app.offloadable_names()
        if len(offloadable) > self.max_offloadable:
            raise ValueError(
                f"{len(offloadable)} offloadable components exceed the "
                f"exhaustive limit of {self.max_offloadable}"
            )
        best: Optional[Partition] = None
        best_score = math.inf
        for r in range(len(offloadable) + 1):
            for subset in itertools.combinations(offloadable, r):
                candidate = Partition(ctx.app.name, frozenset(subset))
                evaluation = evaluate_partition(ctx, candidate)
                if self.use_makespan:
                    score = ctx.weights.combine(
                        evaluation.makespan_s,
                        evaluation.ue_energy_j,
                        evaluation.cloud_cost_usd,
                    )
                else:
                    score = evaluation.objective
                if score < best_score - 1e-12:
                    best_score = score
                    best = candidate
        assert best is not None
        return best


class GreedyPartitioner(Partitioner):
    """Hill climbing over single-component moves.

    Starts from both trivial partitions (local-only and full-offload),
    repeatedly applies the best single flip, and returns the better of
    the two local optima.  Fast and, on the graph families tested in
    ablation A1, within a few percent of the exact optimum.
    """

    name = "greedy"
    pure = True

    def __init__(self, max_iterations: int = 10_000) -> None:
        self.max_iterations = max_iterations

    def partition(self, ctx: PartitionContext) -> Partition:
        candidates = [
            self._climb(ctx, Partition.local_only(ctx.app)),
            self._climb(ctx, Partition.full_offload(ctx.app)),
        ]
        return min(
            candidates, key=lambda p: evaluate_partition(ctx, p).objective
        )

    def _climb(self, ctx: PartitionContext, start: Partition) -> Partition:
        current = start
        current_score = evaluate_partition(ctx, current).objective
        offloadable = ctx.app.offloadable_names()
        for _ in range(self.max_iterations):
            best_move: Optional[Partition] = None
            best_score = current_score
            for name in offloadable:
                candidate = current.moved(name)
                score = evaluate_partition(ctx, candidate).objective
                if score < best_score - 1e-12:
                    best_score = score
                    best_move = candidate
            if best_move is None:
                return current
            current, current_score = best_move, best_score
        return current


class MinCutPartitioner(Partitioner):
    """Exact optimiser of the serialized objective via min s-t cut.

    The serialized objective is a sum of per-node terms (cost of the
    chosen side) and per-edge terms (paid only when an edge is cut), which
    is precisely the energy form solvable by a single max-flow: nodes on
    the source side run locally, nodes on the sink side run in the cloud.
    Pinned components get an infinite-capacity edge to the source.

    This is the MAUI formulation generalised to three objective axes.

    Capacities are scaled to integers before the max-flow runs: the cut
    is read off residual reachability, which has no tolerance, so float
    rounding accumulated while pushing flow could leave an edge "almost"
    saturated and yield a partition whose cost exceeds the cut value.  Integer arithmetic makes the residual graph exact; the
    scaling keeps ~12 significant digits of the original costs.

    The max-flow is :func:`_sink_side` (push-relabel), and the cloud set
    is every node that still reaches the sink in the residual graph: the
    minimal sink side, which is the same for every maximum flow, so the
    partition does not depend on the solver.
    """

    name = "mincut"
    pure = True

    #: Integer scale target: the largest finite capacity maps to ~1e14.
    _SCALE_TARGET = 1e14

    def partition(self, ctx: PartitionContext) -> Partition:
        app = ctx.app
        names = app.component_names
        flows = app.flows
        node_costs = [_node_costs(ctx, name) for name in names]
        edge_costs = [_edge_costs(ctx, flow.src, flow.dst) for flow in flows]
        # A capacity safely above any finite sum of costs acts as infinity.
        ceiling = 1.0
        for local, cloud in node_costs:
            ceiling += local + cloud
        for up, down in edge_costs:
            ceiling += up + down
        infinite = ceiling * 10
        scale = self._SCALE_TARGET / infinite

        def capacity(value: float) -> int:
            return int(round(value * scale))

        source, sink = "__ue__", "__cloud__"
        # residual[u][v] is the capacity left on u -> v; every edge has
        # its reverse entry, so the adjacency is symmetric.
        residual: Dict[str, Dict[str, int]] = {source: {}, sink: {}}
        for name, (local_cost, cloud_cost) in zip(names, node_costs):
            if not app.component(name).offloadable:
                cloud_cost = infinite
            # The convention: capacity(s->v) is paid when v lands on the
            # sink (cloud) side, so it carries the cloud cost; v->t is paid
            # when v stays on the source (local) side.
            residual[source][name] = capacity(cloud_cost)
            residual[sink][name] = 0
            residual[name] = {source: 0, sink: capacity(local_cost)}

        for flow, (up, down) in zip(flows, edge_costs):
            # src local / dst cloud pays `up`: that cut separates src (source
            # side) from dst (sink side) across edge src->dst.  AppGraph is
            # a DAG, so no flow has a reverse twin to merge with.
            residual[flow.src][flow.dst] = capacity(up)
            residual[flow.dst][flow.src] = capacity(down)

        cloud = frozenset(_sink_side(residual, source, sink) - {sink})
        partition = Partition(app.name, cloud)
        partition.validate(app)
        return partition


def _sink_side(
    residual: Dict[str, Dict[str, int]], source: str, sink: str
) -> Set[str]:
    """Push a maximum preflow; return the nodes that still reach ``sink``.

    ``residual`` holds integer capacities with a reverse entry for every
    edge and is updated in place.  FIFO push-relabel: every source edge
    is saturated, then each active node (excess left, still able to
    reach the sink) pushes along admissible edges and is relabelled when
    none is left; heights are recomputed exactly by a reverse BFS after
    every ``len(residual)`` relabels.  The loop stops at a maximum
    *preflow*, leaving excess on nodes cut off from the sink instead of
    returning it to the source.  Returning it would change no residual
    edge at a node that reaches the sink, since none of those holds
    excess, so the returned set is the one every maximum flow gives.
    """
    n = len(residual)
    excess = dict.fromkeys(residual, 0)
    out_of_source = residual[source]
    for node, cap in out_of_source.items():
        if cap > 0:
            out_of_source[node] = 0
            residual[node][source] += cap
            excess[node] = cap
    relabels = n + 1  # start from exact heights
    while True:
        if relabels > n:
            relabels = 0
            height = _distances_to(residual, sink)
            active = deque(
                node for node in residual
                if excess[node] > 0 and height[node] < n and node != sink
            )
        if not active:
            break
        node = active.popleft()
        caps = residual[node]
        left = excess[node]
        while True:
            downhill = height[node] - 1
            lowest = n
            for other, cap in caps.items():
                if cap <= 0:
                    continue
                other_height = height[other]
                if other_height == downhill:
                    pushed = left if left < cap else cap
                    caps[other] = cap - pushed
                    residual[other][node] += pushed
                    if excess[other] == 0 and other != sink:
                        active.append(other)
                    excess[other] += pushed
                    left -= pushed
                    if left == 0:
                        break
                elif other_height < lowest:
                    lowest = other_height
            if left == 0:
                break
            height[node] = lowest + 1
            relabels += 1
            if height[node] >= n:
                break  # cut off from the sink for good
        excess[node] = left
    height = _distances_to(residual, sink)
    return {node for node, h in height.items() if h < n}


def _distances_to(
    residual: Dict[str, Dict[str, int]], sink: str
) -> Dict[str, int]:
    """Residual hop count to ``sink``; ``len(residual)`` if unreachable."""
    n = len(residual)
    height = dict.fromkeys(residual, n)
    height[sink] = 0
    frontier = [sink]
    for node in frontier:
        step = height[node] + 1
        for other in residual[node]:
            if height[other] == n and residual[other][node] > 0:
                height[other] = step
                frontier.append(other)
    return height


class TreeDPPartitioner(Partitioner):
    """Exact optimiser of the serialized objective on tree-shaped apps.

    Classic two-state dynamic programming over the undirected tree: for
    each component, the optimal cost of its subtree given its own side.
    Runs in O(n) and matches :class:`MinCutPartitioner` exactly — ablation
    A1 asserts this — while demonstrating the structure most partitioned
    applications actually have (pipelines with light branching).

    Raises ``ValueError`` on non-tree graphs.
    """

    name = "treedp"
    pure = True

    def partition(self, ctx: PartitionContext) -> Partition:
        if not ctx.app.is_tree():
            raise ValueError(
                f"app {ctx.app.name!r} is not a tree; use MinCutPartitioner"
            )
        neighbours: Dict[str, List[str]] = {
            name: [] for name in ctx.app.component_names
        }
        directed_edges = {}
        for flow in ctx.app.flows:
            neighbours[flow.src].append(flow.dst)
            neighbours[flow.dst].append(flow.src)
            directed_edges[(flow.src, flow.dst)] = flow
        for adjacent in neighbours.values():
            adjacent.sort()

        root = ctx.app.component_names[0]
        # cost[v] = (best subtree cost with v local, with v cloud)
        cost: Dict[str, Tuple[float, float]] = {}
        parent: Dict[str, Optional[str]] = {root: None}
        order: List[str] = []
        stack = [root]
        seen = {root}
        while stack:
            node = stack.pop()
            order.append(node)
            for neighbour in neighbours[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    parent[neighbour] = node
                    stack.append(neighbour)

        def cut_cost(a: str, b: str, a_cloud: bool) -> float:
            """Objective cost of edge {a, b} when a and b are on
            different sides and ``a_cloud`` gives a's side."""
            if (a, b) in directed_edges:
                up, down = _edge_costs(ctx, a, b)
                return down if a_cloud else up
            up, down = _edge_costs(ctx, b, a)
            return up if a_cloud else down

        for node in reversed(order):
            local_cost, cloud_cost = _node_costs(ctx, node)
            if not ctx.app.component(node).offloadable:
                cloud_cost = math.inf
            best_local, best_cloud = local_cost, cloud_cost
            for child in neighbours[node]:
                if parent.get(child) != node:
                    continue
                child_local, child_cloud = cost[child]
                best_local += min(
                    child_local, child_cloud + cut_cost(node, child, False)
                )
                best_cloud += min(
                    child_cloud, child_local + cut_cost(node, child, True)
                )
            cost[node] = (best_local, best_cloud)

        # Reconstruct assignments top-down.
        cloud_set = set()
        assignment: Dict[str, bool] = {}
        root_local, root_cloud = cost[root]
        assignment[root] = root_cloud < root_local
        for node in order:
            if node == root:
                continue
            parent_cloud = assignment[parent[node]]  # type: ignore[index]
            node_local, node_cloud = cost[node]
            stay_cost = node_cloud if parent_cloud else node_local
            move_cost = (node_local if parent_cloud else node_cloud) + cut_cost(
                parent[node], node, parent_cloud  # type: ignore[arg-type]
            )
            assignment[node] = parent_cloud if stay_cost <= move_cost else not parent_cloud
        for node, on_cloud in assignment.items():
            if on_cloud:
                cloud_set.add(node)
        partition = Partition(ctx.app.name, frozenset(cloud_set))
        partition.validate(ctx.app)
        return partition


class SimulatedAnnealingPartitioner(Partitioner):
    """Direct optimisation of the DAG-*makespan* objective.

    The exact partitioners optimise the separable serialized proxy; on
    graphs with real parallelism (wide fan-outs) the proxy can prefer
    cuts that serialize well but parallelise poorly.  This partitioner
    anneals over single-component flips scoring the true makespan-based
    objective.  Randomised but reproducible via the supplied stream;
    seeded from the min-cut solution so it never does worse than the
    proxy optimum (the final answer is the best-seen state).
    """

    name = "annealing"

    def __init__(
        self,
        rng: "RngStream",
        iterations: int = 2000,
        initial_temperature: float = 1.0,
        cooling: float = 0.995,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if initial_temperature <= 0:
            raise ValueError("initial temperature must be > 0")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        self.rng = rng
        self.iterations = iterations
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    @staticmethod
    def _score(ctx: PartitionContext, partition: Partition) -> float:
        evaluation = evaluate_partition(ctx, partition)
        return ctx.weights.combine(
            evaluation.makespan_s,
            evaluation.ue_energy_j,
            evaluation.cloud_cost_usd,
        )

    def partition(self, ctx: PartitionContext) -> Partition:
        offloadable = ctx.app.offloadable_names()
        current = MinCutPartitioner().partition(ctx)
        current_score = self._score(ctx, current)
        best, best_score = current, current_score
        if not offloadable:
            return best

        temperature = self.initial_temperature * max(current_score, 1e-9)
        for _ in range(self.iterations):
            candidate = current.moved(
                offloadable[self.rng.integer(0, len(offloadable))]
            )
            candidate_score = self._score(ctx, candidate)
            delta = candidate_score - current_score
            if delta <= 0 or self.rng.bernoulli(
                math.exp(-delta / max(temperature, 1e-12))
            ):
                current, current_score = candidate, candidate_score
                if current_score < best_score:
                    best, best_score = current, current_score
            temperature *= self.cooling
        return best


class FixedPartitioner(Partitioner):
    """Returns a predetermined partition (used for baselines and canaries)."""

    name = "fixed"
    pure = True

    def __init__(self, partition: Partition) -> None:
        self._partition = partition

    def partition(self, ctx: PartitionContext) -> Partition:
        self._partition.validate(ctx.app)
        return self._partition


def pareto_front(
    evaluations: Iterable[PartitionEvaluation],
) -> List[PartitionEvaluation]:
    """Filter evaluations down to the (makespan, energy, cost) Pareto set."""
    pool = list(evaluations)
    return [
        e
        for e in pool
        if not any(other.dominates(e) for other in pool)
    ]


__all__ = [
    "ExhaustivePartitioner",
    "FixedPartitioner",
    "GreedyPartitioner",
    "MinCutPartitioner",
    "ObjectiveWeights",
    "Partition",
    "PartitionContext",
    "PartitionEvaluation",
    "Partitioner",
    "SimulatedAnnealingPartitioner",
    "TreeDPPartitioner",
    "evaluate_partition",
    "pareto_front",
]
