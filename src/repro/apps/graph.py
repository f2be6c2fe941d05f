"""Component call-graphs.

The partitioning contribution (C3) operates on these graphs: every
component is assigned to the UE or to the cloud, non-offloadable
components are pinned to the UE, and each cut edge pays its data size in
transfer time/energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.apps.dag import find_cycle, topological_order


@dataclass(frozen=True)
class Component:
    """One partitionable unit of application code.

    Parameters
    ----------
    name:
        Unique name within its application.
    work_gcycles:
        Fixed computational demand per job, in gigacycles.
    work_gcycles_per_mb:
        Additional demand per megabyte of job input (the input-dependent
        part that demand estimators must learn).
    offloadable:
        False pins the component to the UE — the classic restriction for
        code touching sensors, UI or local storage.
    parallel_fraction:
        Amdahl fraction, forwarded to the serverless duration model.
    package_mb:
        Size of the deployment artifact when this component ships as a
        serverless function (drives cold starts and deploy time).
    min_memory_mb:
        Working-set floor: the smallest serverless memory size the
        component fits in.
    """

    name: str
    work_gcycles: float = 1.0
    work_gcycles_per_mb: float = 0.0
    offloadable: bool = True
    parallel_fraction: float = 0.0
    package_mb: float = 20.0
    min_memory_mb: float = 128.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")
        if self.work_gcycles < 0 or self.work_gcycles_per_mb < 0:
            raise ValueError(f"{self.name}: work must be >= 0")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError(f"{self.name}: parallel_fraction must be in [0, 1]")
        if self.package_mb < 0:
            raise ValueError(f"{self.name}: package size must be >= 0")
        if self.min_memory_mb < 0:
            raise ValueError(f"{self.name}: memory floor must be >= 0")

    def work_for(self, input_mb: float) -> float:
        """Demand in gigacycles for a job with ``input_mb`` of input."""
        if input_mb < 0:
            raise ValueError("input size must be >= 0")
        return self.work_gcycles + self.work_gcycles_per_mb * input_mb


@dataclass(frozen=True)
class DataFlow:
    """A directed data dependency between two components."""

    src: str
    dst: str
    bytes_fixed: float = 0.0
    bytes_per_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop on {self.src!r}")
        if self.bytes_fixed < 0 or self.bytes_per_mb < 0:
            raise ValueError("data sizes must be >= 0")

    def bytes_for(self, input_mb: float) -> float:
        """Bytes crossing this edge for a job with ``input_mb`` of input."""
        if input_mb < 0:
            raise ValueError("input size must be >= 0")
        return self.bytes_fixed + self.bytes_per_mb * input_mb * 1e6


class AppGraph:
    """A validated DAG of components and data flows."""

    def __init__(
        self,
        name: str,
        components: Iterable[Component],
        flows: Iterable[DataFlow] = (),
    ) -> None:
        self.name = name
        self._components: Dict[str, Component] = {}
        for comp in components:
            if comp.name in self._components:
                raise ValueError(f"duplicate component {comp.name!r}")
            self._components[comp.name] = comp
        if not self._components:
            raise ValueError(f"app {name!r} has no components")

        self._flows: Dict[Tuple[str, str], DataFlow] = {}
        succ: Dict[str, List[str]] = {n: [] for n in self._components}
        pred: Dict[str, List[str]] = {n: [] for n in self._components}
        for flow in flows:
            for endpoint in (flow.src, flow.dst):
                if endpoint not in self._components:
                    raise KeyError(f"flow references unknown component {endpoint!r}")
            key = (flow.src, flow.dst)
            if key in self._flows:
                raise ValueError(f"duplicate flow {key}")
            self._flows[key] = flow
            succ[flow.src].append(flow.dst)
            pred[flow.dst].append(flow.src)

        order = topological_order(self._components, self._flows)
        if order is None:
            cycle = find_cycle(self._components, self._flows)
            raise ValueError(f"app {name!r} contains a cycle: {cycle}")
        self._topo_order: List[str] = order
        self._succ = {n: tuple(sorted(v)) for n, v in succ.items()}
        self._pred = {n: tuple(sorted(v)) for n, v in pred.items()}
        self._sorted_flows = tuple(self._flows[k] for k in sorted(self._flows))

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def component(self, name: str) -> Component:
        """Look up one component by name."""
        if name not in self._components:
            raise KeyError(f"unknown component {name!r} in app {self.name!r}")
        return self._components[name]

    @property
    def components(self) -> List[Component]:
        """All components in topological order."""
        return [self._components[n] for n in self._topo_order]

    @property
    def component_names(self) -> List[str]:
        """Component names in topological order."""
        return list(self._topo_order)

    @property
    def flows(self) -> List[DataFlow]:
        """All data flows, ordered by (src, dst)."""
        return list(self._sorted_flows)

    def flow(self, src: str, dst: str) -> DataFlow:
        """The flow on edge ``(src, dst)``."""
        key = (src, dst)
        if key not in self._flows:
            raise KeyError(f"no flow {src!r} -> {dst!r} in app {self.name!r}")
        return self._flows[key]

    def predecessors(self, name: str) -> List[str]:
        """Immediate upstream component names, sorted."""
        return list(self._pred[name])

    def successors(self, name: str) -> List[str]:
        """Immediate downstream component names, sorted."""
        return list(self._succ[name])

    @cached_property
    def serial_chains(self) -> Tuple[Tuple[str, ...], ...]:
        """The components as maximal serial chains, in topological order.

        Each chain lists its components in flow order, and the chains
        come in topological order of their heads.  A component joins
        its predecessor's chain when that predecessor is its only
        predecessor and it is that predecessor's only successor.  So a
        flow links two chains exactly when its destination heads a
        chain; every other flow runs inside one.  The runtime runs each
        chain in one process (see ``OffloadController``).
        """
        pred, succ = self._pred, self._succ
        chains = []
        for name in self._topo_order:
            before = pred[name]
            if len(before) == 1 and len(succ[before[0]]) == 1:
                continue  # inside its predecessor's chain
            chain = [name]
            after = succ[name]
            while len(after) == 1 and len(pred[after[0]]) == 1:
                chain.append(after[0])
                after = succ[after[0]]
            chains.append(tuple(chain))
        return tuple(chains)

    @property
    def entry_components(self) -> List[str]:
        """Components with no predecessors (job inputs arrive here)."""
        return [n for n in self._topo_order if not self._pred[n]]

    @property
    def exit_components(self) -> List[str]:
        """Components with no successors (job results leave here)."""
        return [n for n in self._topo_order if not self._succ[n]]

    def is_tree(self) -> bool:
        """True when the undirected shape is a tree (enables DP partitioning)."""
        if len(self._flows) != len(self._components) - 1:
            return False
        start = self._topo_order[0]
        reached = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in self._pred[node] + self._succ[node]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return len(reached) == len(self._components)

    # -- aggregate demand -----------------------------------------------------

    def total_work(self, input_mb: float) -> float:
        """Sum of all component demands for one job, in gigacycles."""
        return sum(c.work_for(input_mb) for c in self._components.values())

    def total_flow_bytes(self, input_mb: float) -> float:
        """Sum of all edge data sizes for one job."""
        return sum(f.bytes_for(input_mb) for f in self._flows.values())

    def offloadable_names(self) -> List[str]:
        """Names of components that may leave the UE."""
        return [n for n in self._topo_order if self._components[n].offloadable]

    def pinned_names(self) -> List[str]:
        """Names of components that must stay on the UE."""
        return [n for n in self._topo_order if not self._components[n].offloadable]

    # -- derivation -----------------------------------------------------------

    def with_component(self, component: Component) -> "AppGraph":
        """A copy with one component replaced (same flows)."""
        if component.name not in self._components:
            raise KeyError(f"unknown component {component.name!r}")
        comps = [
            component if c.name == component.name else c
            for c in self._components.values()
        ]
        return AppGraph(self.name, comps, self.flows)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<AppGraph {self.name!r} components={len(self)} "
            f"flows={len(self._flows)}>"
        )


__all__ = ["AppGraph", "Component", "DataFlow"]
