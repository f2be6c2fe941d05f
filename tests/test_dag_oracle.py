"""Differential suite: the in-house DAG order against networkx.

``AppGraph.component_names`` fixes process spawn order, event order and
the order of float sums, so :mod:`repro.apps.dag` must return exactly
``list(nx.topological_sort(g))`` for an ``nx.DiGraph`` built from the
same nodes and edges in the same insertion order — a different but
valid order would change every golden trace.  The oracle graphs here
are built that way: nodes first, then edges, duplicates collapsing as
``DiGraph`` collapses them.
"""

import ast
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import AppGraph, Component, DataFlow
from repro.apps.catalog import CATALOG
from repro.apps.dag import find_cycle, topological_order
from repro.apps.generators import (
    fanout_fanin_app,
    layered_random_app,
    linear_pipeline_app,
    random_tree_app,
)
from repro.serverless.workflow import WorkflowDefinition, WorkflowStep
from repro.sim.rng import RngStream

REPO_ROOT = Path(__file__).resolve().parent.parent


def oracle_graph(nodes, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def assert_closed_walk(cycle, graph: nx.DiGraph) -> None:
    """``cycle`` is a non-empty list of graph edges forming one loop."""
    assert cycle
    for (src, dst), (nxt, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(src, dst)
        assert dst == nxt


@st.composite
def digraphs(draw, acyclic=False, duplicates=True, max_nodes=10):
    """Nodes and edges in shuffled insertion order.

    Edges mostly point forward in a hidden rank order; unless
    ``acyclic``, some point back, which may close a cycle.
    """
    n = draw(st.integers(1, max_nodes))
    names = [f"n{i}" for i in range(n)]
    rank = draw(st.permutations(names))
    nodes = draw(st.permutations(names))
    if n < 2:
        return nodes, []
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=3 * n,
        )
    )
    edges = []
    for i, j in pairs:
        back = not acyclic and draw(st.integers(0, 9)) == 0
        lo, hi = sorted((i, j))
        edges.append((rank[hi], rank[lo]) if back else (rank[lo], rank[hi]))
    if duplicates and edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    else:
        edges = list(dict.fromkeys(edges))
    return nodes, draw(st.permutations(edges))


def app_from(nodes, edges) -> AppGraph:
    return AppGraph(
        "g",
        [Component(name) for name in nodes],
        [DataFlow(src, dst) for src, dst in edges],
    )


def assert_app_matches_oracle(app: AppGraph, graph: nx.DiGraph) -> None:
    order = list(nx.topological_sort(graph))
    assert app.component_names == order
    for name in order:
        assert app.predecessors(name) == sorted(graph.predecessors(name))
        assert app.successors(name) == sorted(graph.successors(name))
    assert app.entry_components == [
        n for n in order if graph.in_degree(n) == 0
    ]
    assert app.exit_components == [
        n for n in order if graph.out_degree(n) == 0
    ]
    assert app.is_tree() == nx.is_tree(graph.to_undirected())
    assert [(f.src, f.dst) for f in app.flows] == sorted(graph.edges)


@contextmanager
def recorded_inputs():
    """Capture the components and flows each ``AppGraph`` is built from."""
    calls = []
    original = AppGraph.__init__

    def recording(self, name, components, flows=()):
        components, flows = list(components), list(flows)
        calls.append((components, flows))
        original(self, name, components, flows)

    with mock.patch.object(AppGraph, "__init__", recording):
        yield calls


def oracle_for(factory, *args) -> tuple:
    with recorded_inputs() as calls:
        app = factory(*args)
    components, flows = calls[-1]
    graph = oracle_graph(
        [c.name for c in components], [(f.src, f.dst) for f in flows]
    )
    return app, graph


class TestTopologicalOrder:
    @given(digraphs())
    @settings(max_examples=400)
    def test_matches_networkx_order_and_acyclicity(self, drawn):
        nodes, edges = drawn
        graph = oracle_graph(nodes, edges)
        order = topological_order(nodes, edges)
        assert (order is None) == (not nx.is_directed_acyclic_graph(graph))
        if order is not None:
            assert order == list(nx.topological_sort(graph))

    @given(digraphs())
    @settings(max_examples=200)
    def test_find_cycle_names_a_real_cycle(self, drawn):
        nodes, edges = drawn
        graph = oracle_graph(nodes, edges)
        cycle = find_cycle(nodes, edges)
        if nx.is_directed_acyclic_graph(graph):
            assert cycle == []
        else:
            assert_closed_walk(cycle, graph)

    def test_duplicate_edges_collapse(self):
        nodes = ["c", "a", "b"]
        edges = [("a", "b"), ("a", "c"), ("a", "b"), ("b", "c")]
        assert topological_order(nodes, edges) == list(
            nx.topological_sort(oracle_graph(nodes, edges))
        )
        assert topological_order(nodes, edges) == ["a", "b", "c"]


class TestAppGraphOracle:
    @given(digraphs(acyclic=True, duplicates=False))
    @settings(max_examples=200)
    def test_random_apps_match_networkx(self, drawn):
        nodes, edges = drawn
        assert_app_matches_oracle(
            app_from(nodes, edges), oracle_graph(nodes, edges)
        )

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_apps_match_networkx(self, name):
        assert_app_matches_oracle(*oracle_for(CATALOG[name]))

    @pytest.mark.parametrize(
        "factory, size",
        [
            (linear_pipeline_app, 2),
            (linear_pipeline_app, 9),
            (fanout_fanin_app, 1),
            (fanout_fanin_app, 6),
            (random_tree_app, 1),
            (random_tree_app, 14),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_families_match_networkx(self, factory, size, seed):
        app, graph = oracle_for(factory, size, RngStream(seed, "dag"))
        assert_app_matches_oracle(app, graph)

    @given(
        n_layers=st.integers(2, 5),
        width=st.integers(1, 4),
        p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40)
    def test_layered_family_matches_networkx(self, n_layers, width, p, seed):
        app, graph = oracle_for(
            layered_random_app, n_layers, width, RngStream(seed, "dag"), p
        )
        assert_app_matches_oracle(app, graph)

    @given(digraphs(duplicates=False))
    @settings(max_examples=200)
    def test_cycle_error_names_the_cycle(self, drawn):
        nodes, edges = drawn
        graph = oracle_graph(nodes, edges)
        if nx.is_directed_acyclic_graph(graph):
            app_from(nodes, edges)
            return
        with pytest.raises(ValueError, match="contains a cycle") as info:
            app_from(nodes, edges)
        listed = ast.literal_eval(str(info.value).split("cycle: ", 1)[1])
        assert_closed_walk(listed, graph)


def workflow_steps(nodes, edges):
    """One step per node; ``depends_on`` in edge order, repeats kept."""
    return [
        WorkflowStep(
            name, f"fn.{name}", tuple(src for src, dst in edges if dst == name)
        )
        for name in nodes
    ]


def workflow_oracle(steps) -> nx.DiGraph:
    """The graph ``WorkflowDefinition`` built from its steps before."""
    return oracle_graph(
        [s.name for s in steps],
        [(up, s.name) for s in steps for up in s.depends_on],
    )


class TestWorkflowOracle:
    @given(digraphs())
    @settings(max_examples=300)
    def test_step_order_matches_networkx(self, drawn):
        steps = workflow_steps(*drawn)
        graph = workflow_oracle(steps)
        if not nx.is_directed_acyclic_graph(graph):
            with pytest.raises(ValueError, match="contains a cycle") as info:
                WorkflowDefinition("wf", steps)
            listed = ast.literal_eval(str(info.value).split("cycle: ", 1)[1])
            assert_closed_walk(listed, graph)
            return
        definition = WorkflowDefinition("wf", steps)
        assert definition.step_names == list(nx.topological_sort(graph))

    def test_repeated_dependency_collapses(self):
        steps = [
            WorkflowStep("d", "fn", depends_on=("b", "a", "b")),
            WorkflowStep("a", "fn"),
            WorkflowStep("b", "fn", depends_on=("a", "a")),
        ]
        expected = list(nx.topological_sort(workflow_oracle(steps)))
        assert WorkflowDefinition("wf", steps).step_names == expected
        assert expected == ["a", "b", "d"]


@pytest.fixture(scope="module")
def runtime_modules():
    """Top-level modules a fresh process holds after importing the package
    and the CLI and running one offload workload and a one-shard fleet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "import repro, repro.fleet, repro.sweep.scenarios, repro.cli\n"
            "from repro.fleet.sharded import ShardedFleetSpec, run_sharded\n"
            "from repro.fleet.topology import FleetTopology\n"
            "repro.sweep.scenarios.offload_run({'jobs': 2})\n"
            "run_sharded(ShardedFleetSpec(topology=FleetTopology.uniform(2, 1),\n"
            "    window_s=600.0, slack_s=1200.0), n_shards=1)\n"
            "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(probe.stdout.split())


def test_import_path_has_no_networkx(runtime_modules):
    """The package must not pull networkx (~14 MB resident) into a process."""
    assert "repro" in runtime_modules
    assert "networkx" not in runtime_modules


def test_runtime_path_has_no_numpy(runtime_modules):
    """numpy is the random streams' test oracle only; loading it costs
    every process about 13 MB resident."""
    assert "repro" in runtime_modules
    assert "numpy" not in runtime_modules
