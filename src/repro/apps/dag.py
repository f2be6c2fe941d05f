"""Topological order for small DAGs, identical to ``nx.topological_sort``.

``AppGraph.component_names`` fixes process spawn order, event order and
the order of float sums, so the order must match what
``nx.topological_sort`` returns on an ``nx.DiGraph`` built from the same
nodes and edges — any other valid order would change every trace.  That
order is Kahn's algorithm by generations: seed with the zero-in-degree
nodes in insertion order, visit each node's successors in edge insertion
order, and release a node the moment its last in-edge is consumed.
Duplicate edges collapse, as they do in a ``DiGraph``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)


def _successor_map(
    nodes: Iterable[N], edges: Iterable[Tuple[N, N]]
) -> Dict[N, Dict[N, None]]:
    """Insertion-ordered, duplicate-free successor sets."""
    succ: Dict[N, Dict[N, None]] = {node: {} for node in nodes}
    for src, dst in edges:
        succ[src][dst] = None
    return succ


def _kahn(succ: Dict[N, Dict[N, None]]) -> List[N]:
    """Kahn by generations; stops short of the nodes a cycle blocks."""
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for dst in targets:
            indegree[dst] += 1
    generation = [node for node, degree in indegree.items() if degree == 0]
    order: List[N] = []
    while generation:
        order.extend(generation)
        released: List[N] = []
        for node in generation:
            for child in succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    released.append(child)
        generation = released
    return order


def topological_order(
    nodes: Iterable[N], edges: Iterable[Tuple[N, N]]
) -> Optional[List[N]]:
    """The ``nx.topological_sort`` order, or ``None`` when there is a cycle.

    Every edge endpoint must be one of ``nodes``.
    """
    succ = _successor_map(nodes, edges)
    order = _kahn(succ)
    return order if len(order) == len(succ) else None


def find_cycle(
    nodes: Iterable[N], edges: Iterable[Tuple[N, N]]
) -> List[Tuple[N, N]]:
    """The edges of one directed cycle, in walk order; ``[]`` if acyclic."""
    succ = _successor_map(nodes, edges)
    emitted = set(_kahn(succ))
    # Each node Kahn never emits keeps an in-edge from another such
    # node, so walking first predecessors backwards must revisit one.
    pred: Dict[N, N] = {}
    for src, targets in succ.items():
        if src not in emitted:
            for dst in targets:
                if dst not in emitted:
                    pred.setdefault(dst, src)
    if not pred:
        return []
    node = next(iter(pred))
    seen = set()
    while node not in seen:
        seen.add(node)
        node = pred[node]
    walk = [node]
    while pred[walk[-1]] != node:
        walk.append(pred[walk[-1]])
    walk.reverse()
    return [(pred[dst], dst) for dst in walk]
