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


def test_o2_verdict_quotes_the_f6_event_count(make_experiments):
    """The O2 verdict's event count is read from the F6a table it
    cites, so it moves with the table instead of going stale."""
    f6 = (
        "F6a: controller cost vs concurrent jobs (photo backup)\n"
        "jobs | sim events | wall ms | wall ms/job | all met\n"
        "-----+------------+---------+-------------+--------\n"
        "   5 |        306 |    6.39 |        1.28 |     yes\n"
        "  80 |       4807 |   80.03 |        1.00 |     yes\n"
        "\n"
        "F6b: planning time vs graph size (linear pipelines)\n"
        "components | mincut ms | greedy ms | exhaustive ms | greedy gap %\n"
        "        80 |      0.20 |      1.45 |          0.81 |         0.00\n"
    )
    (o2,) = [s for s in make_experiments.build_sections() if s[0] == "O2"]
    assert "*unchanged* event count (4807)" in o2[4]({"F6": f6})
    assert make_experiments.f6_events({"F6": f6}, 5) == 306
    with pytest.raises(ValueError, match="no row for 20 jobs"):
        make_experiments.f6_events({"F6": f6}, 20)
