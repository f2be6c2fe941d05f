"""Property tests: remediated fleet runs are byte-deterministic.

The closed-loop remediation plane must not break the sharded fleet's
core guarantee — the merged document, health rollup, alert log, and
action log are byte-identical regardless of how the fleet is split
into shards or how many workers execute them.  Hypothesis drives the
chaos schedule and coupling topology; each drawn fleet is executed at
1, 2, and 4 shards (workers 1 and 2) and every artifact compared
byte for byte.  A fixed outage fleet also checks that acting pays off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.sharded import ShardedFleetSpec, run_sharded
from repro.fleet.topology import FleetTopology


def _spec(chaos, couple, ues_per_zone, seed, remediate=True):
    topology = FleetTopology.uniform(
        n_zones=4,
        ues_per_zone=ues_per_zone,
        connectivity="4g",
        jobs_per_ue=1,
        couple=couple,
        seed=seed,
    )
    return ShardedFleetSpec(
        topology=topology,
        window_s=600.0,
        slack_s=1200.0,
        monitor=True,
        chaos=chaos,
        remediate=remediate,
    )


def _artifacts(result):
    return (
        result.merged_json(),
        result.health_json(),
        result.alert_log,
        result.action_log,
    )


class TestRemediatedFleetDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(
        chaos=st.sampled_from(["uplink-outage", "uplink-degraded"]),
        couple=st.sampled_from(["pairs", "ring"]),
        ues_per_zone=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_artifacts_byte_identical_across_shards_and_workers(
        self, chaos, couple, ues_per_zone, seed
    ):
        spec = _spec(chaos, couple, ues_per_zone, seed)
        baseline = _artifacts(run_sharded(spec, n_shards=1, workers=1))
        for n_shards, workers in ((2, 1), (2, 2), (4, 2)):
            candidate = _artifacts(
                run_sharded(spec, n_shards=n_shards, workers=workers)
            )
            assert candidate == baseline, (
                f"artifact drift at shards={n_shards} workers={workers} "
                f"for chaos={chaos} couple={couple} "
                f"ues={ues_per_zone} seed={seed}"
            )

    @settings(max_examples=3, deadline=None)
    @given(
        chaos=st.sampled_from(["uplink-outage", "uplink-degraded"]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_remediated_chaos_runs_act_and_log_terminally(self, chaos, seed):
        result = run_sharded(_spec(chaos, "pairs", 2, seed), n_shards=2)
        health = result.health
        if chaos == "uplink-outage":
            # A hard outage trips the stall SLO; mere degradation is
            # caught by the goodput forecaster before any alert fires.
            assert health["fleet"]["alerts_fired"] >= 1
        assert health["actions"], "chaos fleet should have remediated"
        # Every firing alert reached a terminal state in the merged log.
        fired = result.alert_log.count(" FIRING ")
        cleared = result.alert_log.count(" CLEARED ")
        assert fired == cleared
        # The action log parses line by line in the canonical shape.
        for line in result.action_log.splitlines():
            assert line.startswith("t=")
            assert " ACTION kind=" in line


class TestRemediatedOutageFleet:
    """4 zones x 2 UEs, paired, under an uplink outage at seed 0."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = _spec("uplink-outage", "pairs", 2, 0)
        return {
            "watched": run_sharded(
                _spec("uplink-outage", "pairs", 2, 0, remediate=False),
                n_shards=1,
            ),
            "acted": run_sharded(spec, n_shards=1),
            "acted_sharded": run_sharded(spec, n_shards=2, workers=2),
        }

    def test_remediation_acts_and_the_stall_clears(self, runs):
        acted = runs["acted"]
        assert acted.action_log
        assert "FIRING slo=uplink-stall" in acted.alert_log
        assert "CLEARED slo=uplink-stall" in acted.alert_log

    def test_remediation_cuts_platform_spend(self, runs):
        # Shifting traffic off the stalled uplink stops burning spend
        # into it, so the remediated bill is strictly below alert-only.
        watched = runs["watched"].aggregates["platform_usd"]
        assert runs["acted"].aggregates["platform_usd"] < watched

    def test_artifacts_byte_identical_at_two_shards(self, runs):
        acted, sharded = runs["acted"], runs["acted_sharded"]
        assert acted.merged_json() == sharded.merged_json()
        assert acted.health_json() == sharded.health_json()
        assert acted.action_log == sharded.action_log
