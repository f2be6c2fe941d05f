"""Differential suite: the in-house max-flow against networkx.

The oracle is the original networkx formulation of
:class:`~repro.core.partitioning.MinCutPartitioner`: the same
integer-scaled capacities on an ``nx.DiGraph``, cut by
``nx.minimum_cut``, with the cloud set read off its sink side.  Both
return the nodes that still reach the sink in the residual graph of a
maximum flow, which is the same set for every maximum flow, so the two
must agree exactly — not merely in objective value.
"""

from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import AppGraph
from repro.apps.generators import (
    fanout_fanin_app,
    layered_random_app,
    linear_pipeline_app,
    random_tree_app,
)
from repro.core.partitioning import (
    MinCutPartitioner,
    ObjectiveWeights,
    PartitionContext,
    _edge_costs,
    _node_costs,
    _sink_side,
)
from repro.sim.rng import RngStream


def oracle_cloud(ctx: PartitionContext) -> frozenset:
    """The cloud set ``nx.minimum_cut`` yields on the integer graph."""
    graph = nx.DiGraph()
    source, sink = "__ue__", "__cloud__"
    ceiling = 1.0
    for name in ctx.app.component_names:
        local, cloud = _node_costs(ctx, name)
        ceiling += local + cloud
    for flow in ctx.app.flows:
        up, down = _edge_costs(ctx, flow.src, flow.dst)
        ceiling += up + down
    infinite = ceiling * 10
    scale = MinCutPartitioner._SCALE_TARGET / infinite

    def capacity(value: float) -> int:
        return int(round(value * scale))

    for name in ctx.app.component_names:
        local_cost, cloud_cost = _node_costs(ctx, name)
        if not ctx.app.component(name).offloadable:
            cloud_cost = infinite
        graph.add_edge(source, name, capacity=capacity(cloud_cost))
        graph.add_edge(name, sink, capacity=capacity(local_cost))
    for flow in ctx.app.flows:
        up, down = _edge_costs(ctx, flow.src, flow.dst)
        graph.add_edge(flow.src, flow.dst, capacity=capacity(up))
        graph.add_edge(flow.dst, flow.src, capacity=capacity(down))

    _value, (_source_side, sink_side) = nx.minimum_cut(graph, source, sink)
    return frozenset(n for n in sink_side if n not in (source, sink))


def build_app(
    family: str, size: int, seed: int, work_scale=1.0, data_scale=1.0
) -> AppGraph:
    """One generator app with about ``size`` components."""
    rng = RngStream(seed)
    scales = dict(work_scale=work_scale, data_scale=data_scale)
    if family == "pipeline":
        return linear_pipeline_app(max(size, 2), rng, **scales)
    if family == "fanout":
        return fanout_fanin_app(max(size - 2, 1), rng, **scales)
    if family == "tree":
        return random_tree_app(size, rng, **scales)
    layers = 2 + rng.integer(0, 7)
    width = max(1, (size - 2) // max(layers - 2, 1))
    return layered_random_app(layers, min(width, 16), rng, **scales)


def pin(app: AppGraph, names) -> AppGraph:
    """A copy of ``app`` with ``names`` pinned to the UE."""
    pinned = set(names)
    components = [
        replace(c, offloadable=False) if c.name in pinned else c
        for c in app.components
    ]
    return AppGraph(app.name, components, app.flows)


def make_context(app, input_mb, uplink_bps, downlink_bps, egress, weights):
    return PartitionContext(
        app=app,
        input_mb=input_mb,
        work={c.name: c.work_for(input_mb) for c in app.components},
        uplink_bps=uplink_bps,
        downlink_bps=downlink_bps,
        egress_price_per_gb=egress,
        weights=weights,
    )


def assert_same_cut(ctx: PartitionContext) -> None:
    ours = MinCutPartitioner().partition(ctx)
    assert ours.cloud == oracle_cloud(ctx)


def log_uniform(low: float, high: float):
    return st.floats(min_value=0.0, max_value=1.0).map(
        lambda u: low * (high / low) ** u
    )


rates = log_uniform(125.0, 1e8)
weight = st.sampled_from([0.0, 0.01, 0.1, 1.0, 10.0, 1000.0])
weight_sets = st.one_of(
    st.sampled_from([
        ObjectiveWeights(),
        ObjectiveWeights.interactive(),
        ObjectiveWeights.non_time_critical(),
    ]),
    st.builds(ObjectiveWeights, weight, weight, weight),
)


@settings(max_examples=300)
@given(
    family=st.sampled_from(["pipeline", "fanout", "tree", "layered"]),
    size=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    work_scale=log_uniform(0.1, 10.0),
    data_scale=log_uniform(0.01, 100.0),
    input_mb=st.sampled_from([0.0, 0.5, 2.0, 10.0]),
    uplink_bps=rates,
    downlink_bps=rates,
    egress=st.sampled_from([0.0, 0.09]),
    weights=weight_sets,
    pinned=st.lists(st.integers(min_value=0, max_value=63), max_size=6),
    idle=st.booleans(),
)
def test_generator_families_match_networkx(
    family, size, seed, work_scale, data_scale, input_mb, uplink_bps,
    downlink_bps, egress, weights, pinned, idle,
):
    app = build_app(family, size, seed, work_scale, data_scale)
    names = app.component_names
    app = pin(app, [names[i % len(names)] for i in pinned])
    ctx = make_context(app, input_mb, uplink_bps, downlink_bps, egress, weights)
    ctx = replace(ctx, include_idle_energy=idle)
    assert_same_cut(ctx)


@settings(max_examples=100)
@given(
    app_seed=st.integers(min_value=0, max_value=2**16),
    uplink_bps=rates,
)
def test_all_zero_weights_match_networkx(app_seed, uplink_bps):
    """Every finite capacity is zero: only the pinned edges carry flow."""
    app = random_tree_app(12, RngStream(app_seed))
    ctx = make_context(
        app, 1.0, uplink_bps, 5e6, 0.0, ObjectiveWeights(0.0, 0.0, 0.0)
    )
    assert_same_cut(ctx)


@pytest.mark.parametrize("family", ["pipeline", "fanout", "tree"])
@pytest.mark.parametrize("size", [128, 512])
@pytest.mark.parametrize("uplink_bps", [125.0, 1.25e6, 1e8])
@pytest.mark.parametrize("data_scale", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("egress", [0.0, 0.09])
def test_large_graphs_match_networkx(family, size, uplink_bps, data_scale, egress):
    app = build_app(family, size, seed=size, data_scale=data_scale)
    ctx = make_context(
        app, 2.0, uplink_bps, 4 * uplink_bps, egress,
        ObjectiveWeights.non_time_critical(),
    )
    assert_same_cut(ctx)


@settings(max_examples=300)
@given(
    n=st.integers(min_value=1, max_value=10),
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=60,
    ),
)
def test_max_flow_matches_networkx_on_random_graphs(n, edges):
    """Arbitrary integer graphs, where pushed flow must be sent back.

    Node ``n`` is the source and ``n + 1`` the sink; the sink has no
    outgoing edges, so the flow value is what the sink's reverse
    residuals hold.
    """
    source, sink = n, n + 1
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n + 2))
    for u, v, cap in edges:
        u, v = u % (n + 2), v % (n + 2)
        if u != v and u != sink and v != source:
            graph.add_edge(u, v, capacity=cap)
    residual = {node: {} for node in graph}
    for u, v, data in graph.edges(data=True):
        residual[u][v] = data["capacity"]
        residual[v].setdefault(u, 0)

    ours = _sink_side(residual, source, sink)
    value, (_source_side, sink_side) = nx.minimum_cut(graph, source, sink)
    assert sum(residual[sink].values()) == value
    assert ours == set(sink_side)
