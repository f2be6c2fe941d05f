"""Tests for the EXPERIMENTS.md generator (``tools/make_experiments.py``)."""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def make_experiments(monkeypatch):
    # Imported by name so that pooled sweep workers resolve the same module
    # ("make_experiments:run_experiment") the test patches.
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    import make_experiments

    return make_experiments


def _plain():
    print("plain body")


def _own_pool():
    from repro.fleet.sharded import ShardedFleetSpec, run_sharded
    from repro.fleet.topology import FleetTopology

    spec = ShardedFleetSpec(
        topology=FleetTopology.uniform(2, 1), window_s=600.0, slack_s=1200.0
    )
    result = run_sharded(spec, n_shards=2, workers=2)
    print(f"pool body {len(result.merged_json())}")


def _stub_sections():
    return [
        ("S1", "plain", "", _plain, "v1"),
        ("S2", "own pool", "", _own_pool, "v2"),
    ]


def test_sections_with_their_own_pool_run_beside_a_pooled_sweep(
    make_experiments, monkeypatch, tmp_path
):
    """A pooled sweep worker is daemonic and may not start a pool of its
    own, so a section that does must still produce its body."""
    monkeypatch.setattr(make_experiments, "build_sections", _stub_sections)
    monkeypatch.setattr(make_experiments, "OWN_POOL", frozenset({"S2"}))
    out = tmp_path / "EXPERIMENTS.md"
    make_experiments.main(str(out), workers=2)
    text = out.read_text()
    assert "```\nplain body\n```" in text
    assert "```\npool body " in text
    assert text.index("## S1") < text.index("## S2")


def test_f10_is_the_section_that_starts_a_pool(make_experiments):
    ids = [section[0] for section in make_experiments.build_sections()]
    assert make_experiments.OWN_POOL <= set(ids)
    assert "F10" in make_experiments.OWN_POOL
