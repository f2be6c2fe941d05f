"""Tests for the application graph model."""

import pytest

from repro.apps import (
    AppGraph,
    Component,
    DataFlow,
    ml_training_app,
    nightly_analytics_app,
    photo_backup_app,
)


def simple_app():
    return AppGraph(
        "simple",
        [
            Component("a", work_gcycles=1.0, offloadable=False),
            Component("b", work_gcycles=2.0, work_gcycles_per_mb=1.0),
            Component("c", work_gcycles=3.0),
        ],
        [
            DataFlow("a", "b", bytes_fixed=100.0, bytes_per_mb=0.5),
            DataFlow("b", "c", bytes_fixed=50.0),
        ],
    )


class TestComponent:
    def test_work_scaling(self):
        component = Component("x", work_gcycles=2.0, work_gcycles_per_mb=3.0)
        assert component.work_for(0.0) == 2.0
        assert component.work_for(4.0) == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Component("")
        with pytest.raises(ValueError):
            Component("x", work_gcycles=-1.0)
        with pytest.raises(ValueError):
            Component("x", parallel_fraction=1.5)
        with pytest.raises(ValueError):
            Component("x", package_mb=-1.0)
        with pytest.raises(ValueError):
            Component("x", min_memory_mb=-1.0)
        with pytest.raises(ValueError):
            Component("x").work_for(-1.0)


class TestDataFlow:
    def test_bytes_scaling(self):
        flow = DataFlow("a", "b", bytes_fixed=100.0, bytes_per_mb=0.5)
        assert flow.bytes_for(0.0) == 100.0
        assert flow.bytes_for(2.0) == 100.0 + 1e6

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DataFlow("a", "a")

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            DataFlow("a", "b", bytes_fixed=-1.0)


class TestAppGraphConstruction:
    def test_duplicate_component_rejected(self):
        with pytest.raises(ValueError):
            AppGraph("x", [Component("a"), Component("a")])

    def test_empty_app_rejected(self):
        with pytest.raises(ValueError):
            AppGraph("x", [])

    def test_unknown_flow_endpoint_rejected(self):
        with pytest.raises(KeyError):
            AppGraph("x", [Component("a")], [DataFlow("a", "ghost")])

    def test_duplicate_flow_rejected(self):
        with pytest.raises(ValueError):
            AppGraph(
                "x",
                [Component("a"), Component("b")],
                [DataFlow("a", "b"), DataFlow("a", "b")],
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            AppGraph(
                "x",
                [Component("a"), Component("b")],
                [DataFlow("a", "b"), DataFlow("b", "a")],
            )


class TestAppGraphQueries:
    def test_topological_component_order(self):
        app = simple_app()
        assert app.component_names == ["a", "b", "c"]

    def test_lookup(self):
        app = simple_app()
        assert app.component("b").work_gcycles == 2.0
        with pytest.raises(KeyError):
            app.component("ghost")
        assert "b" in app
        assert "ghost" not in app
        assert len(app) == 3

    def test_flow_lookup(self):
        app = simple_app()
        assert app.flow("a", "b").bytes_fixed == 100.0
        with pytest.raises(KeyError):
            app.flow("a", "c")

    def test_neighbours(self):
        app = simple_app()
        assert app.predecessors("b") == ["a"]
        assert app.successors("b") == ["c"]

    def test_entry_exit(self):
        app = simple_app()
        assert app.entry_components == ["a"]
        assert app.exit_components == ["c"]

    def test_pinned_and_offloadable(self):
        app = simple_app()
        assert app.pinned_names() == ["a"]
        assert app.offloadable_names() == ["b", "c"]

    def test_is_tree(self):
        assert simple_app().is_tree()
        diamond = AppGraph(
            "diamond",
            [Component(n) for n in "abcd"],
            [
                DataFlow("a", "b"),
                DataFlow("a", "c"),
                DataFlow("b", "d"),
                DataFlow("c", "d"),
            ],
        )
        assert not diamond.is_tree()

    def test_total_work_and_flow(self):
        app = simple_app()
        assert app.total_work(1.0) == pytest.approx(1.0 + 3.0 + 3.0)
        assert app.total_flow_bytes(0.0) == pytest.approx(150.0)

    def test_with_component_replaces(self):
        app = simple_app()
        updated = app.with_component(Component("b", work_gcycles=99.0))
        assert updated.component("b").work_gcycles == 99.0
        assert app.component("b").work_gcycles == 2.0
        assert len(updated.flows) == len(app.flows)

    def test_with_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            simple_app().with_component(Component("ghost"))

    def test_serial_chains(self):
        assert simple_app().serial_chains == (("a", "b", "c"),)
        assert photo_backup_app().serial_chains == (
            ("capture", "transcode"),
            ("thumbnail",),
            ("feature_extract", "dedup_hash"),
            ("index_update", "notify"),
        )
        # A fork and a join end chains on both sides of them.
        diamond = AppGraph(
            "diamond",
            [Component(n) for n in "abcde"],
            [
                DataFlow("a", "b"),
                DataFlow("a", "c"),
                DataFlow("b", "d"),
                DataFlow("c", "d"),
                DataFlow("d", "e"),
            ],
        )
        assert diamond.serial_chains == (("a",), ("b",), ("c",), ("d", "e"))

    def test_chain_layout(self):
        """The layout a job runs on: the chains, the one entry chain, each
        chain's tail by head, and the flows into chain heads; an app with
        two entry components has no entry chain."""
        app = photo_backup_app()
        chains, entry, tails, links = app.chain_layout
        assert chains == app.serial_chains
        assert entry == ("capture", "transcode")
        assert tails == {
            "capture": "transcode", "thumbnail": "thumbnail",
            "feature_extract": "dedup_hash", "index_update": "notify",
        }
        assert links == [
            ("dedup_hash", "index_update"),
            ("thumbnail", "index_update"),
            ("transcode", "feature_extract"),
            ("transcode", "thumbnail"),
        ]
        assert app.chain_layout is app.chain_layout
        join = AppGraph(
            "join",
            [Component(n) for n in "abc"],
            [DataFlow("a", "c"), DataFlow("b", "c")],
        )
        assert join.chain_layout[1] is None

    @pytest.mark.parametrize("family", ["tree", "layered"])
    @pytest.mark.parametrize("seed", range(6))
    def test_serial_chains_partition_the_graph(self, family, seed):
        from repro.apps.generators import layered_random_app, random_tree_app
        from repro.sim.rng import RngStream

        if family == "tree":
            app = random_tree_app(10, RngStream(seed))
        else:
            app = layered_random_app(4, 3, RngStream(seed))
        chains = app.serial_chains
        members = [name for chain in chains for name in chain]
        assert sorted(members) == sorted(app.component_names)
        heads = {chain[0] for chain in chains}
        for chain in chains:
            for src, dst in zip(chain, chain[1:]):
                assert app.successors(src) == [dst]
                assert app.predecessors(dst) == [src]
        for flow in app.flows:
            fused = (
                app.successors(flow.src) == [flow.dst]
                and app.predecessors(flow.dst) == [flow.src]
            )
            assert (flow.dst in heads) is not fused


class TestCatalogApps:
    @pytest.mark.parametrize(
        "factory",
        [
            photo_backup_app,
            nightly_analytics_app,
            ml_training_app,
            pytest.param(
                __import__("repro.apps", fromlist=["document_ocr_app"]).document_ocr_app,
                id="document_ocr_app",
            ),
            pytest.param(
                __import__("repro.apps", fromlist=["video_highlights_app"]).video_highlights_app,
                id="video_highlights_app",
            ),
        ],
    )
    def test_catalog_apps_valid(self, factory):
        app = factory()
        assert len(app) >= 5
        assert app.entry_components
        assert app.exit_components
        # Endpoints touch the device and must stay local.
        for name in app.entry_components + app.exit_components:
            assert not app.component(name).offloadable

    def test_ml_training_dominated_by_train(self):
        app = ml_training_app()
        train = app.component("train").work_for(5.0)
        rest = app.total_work(5.0) - train
        assert train > 2 * rest

    def test_photo_backup_data_shrinks_downstream(self):
        app = photo_backup_app()
        raw = app.flow("capture", "transcode").bytes_for(5.0)
        final = app.flow("index_update", "notify").bytes_for(5.0)
        assert raw > 100 * final

    def test_ocr_output_tiny_vs_input(self):
        from repro.apps import document_ocr_app

        app = document_ocr_app()
        scan = app.flow("scan_intake", "preprocess").bytes_for(10.0)
        text = app.flow("recognize", "assemble_pdf").bytes_for(10.0)
        assert text < 0.1 * scan

    def test_video_highlights_has_fanout(self):
        from repro.apps import video_highlights_app

        app = video_highlights_app()
        assert len(app.successors("decode")) == 2
        assert not app.is_tree()
        # The dominant stage needs real memory.
        assert app.component("action_score").min_memory_mb >= 2048

    def test_catalog_registry_complete(self):
        from repro.apps.catalog import CATALOG

        assert set(CATALOG) == {
            "photo_backup",
            "nightly_analytics",
            "ml_training",
            "document_ocr",
            "video_highlights",
        }
        for name, factory in CATALOG.items():
            assert factory().name == name
