"""Serialization and merge tests for monitor wire dicts.

The core claims: ``to_dict``/``from_dict`` are exact inverses for
sketches, windowed series, and whole monitors (the fleet's per-group
wire dict); merging group wire dicts is equivalent to having observed
every event on one monitor; and the canonical JSON of a merge is
independent of how the events were partitioned into shards.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import QuantileSketch
from repro.monitor.fleet import merge_snapshots, replay_fleet_slos
from repro.monitor.monitor import Monitor
from repro.monitor.window import WindowedSeries
from repro.sweep import canonical_json

import pytest


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


def observations(max_t=600.0):
    """Event tuples with integer-valued measurements.

    Integer-valued doubles add associatively, so splitting a stream
    across shards and merging cannot reorder ``value_sum`` into a
    different float — which matches the fleet's actual guarantee:
    shards partition whole coupling groups and the merge folds whole
    group snapshots in a fixed order, never interleaved events.
    """
    return st.lists(
        st.tuples(
            st.floats(0.0, max_t, allow_nan=False),
            st.integers(0, 50).map(float),
            st.booleans(),
        ),
        max_size=40,
    )


class TestSketchRoundTrip:
    @given(values=st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=30))
    @settings(max_examples=25)
    def test_to_from_dict_is_exact(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.count == sketch.count
        assert clone.to_dict() == sketch.to_dict()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            QuantileSketch.from_dict(
                {"alpha": 0.01, "zero": 0, "buckets": {"3": -1}}
            )


class TestSeriesRoundTripAndMerge:
    @given(obs=observations())
    @settings(max_examples=25)
    def test_round_trip_preserves_aggregates(self, obs):
        series = WindowedSeries(bucket_s=10.0, horizon_s=3600.0)
        for at, value, bad in obs:
            series.observe(at, value=value, bad=bad)
        clone = WindowedSeries.from_dict(series.to_dict())
        assert clone.to_dict() == series.to_dict()
        agg_a = series.aggregate(600.0, 600.0)
        agg_b = clone.aggregate(600.0, 600.0)
        assert agg_a.count == agg_b.count
        assert agg_a.value_sum == agg_b.value_sum
        assert agg_a.quantile(0.95) == agg_b.quantile(0.95)

    @given(obs=observations())
    @settings(max_examples=25)
    def test_merge_of_split_equals_combined(self, obs):
        combined = WindowedSeries(bucket_s=10.0, horizon_s=7200.0)
        left = WindowedSeries(bucket_s=10.0, horizon_s=7200.0)
        right = WindowedSeries(bucket_s=10.0, horizon_s=7200.0)
        for i, (at, value, bad) in enumerate(obs):
            combined.observe(at, value=value, bad=bad)
            (left if i % 2 == 0 else right).observe(at, value=value, bad=bad)
        left.merge(right)
        assert left.to_dict() == combined.to_dict()

    def test_to_dict_types_values_like_a_round_trip(self):
        series = WindowedSeries(bucket_s=10, horizon_s=60)
        series.observe(5.0, value=2, extras_max={"depth": 3})
        round_trip = WindowedSeries.from_dict(series.to_dict())
        assert canonical_json(series.to_dict()) == canonical_json(
            round_trip.to_dict()
        )

    def test_merge_rejects_mismatched_geometry(self):
        a = WindowedSeries(bucket_s=10.0)
        with pytest.raises(ValueError):
            a.merge(WindowedSeries(bucket_s=5.0))
        with pytest.raises(ValueError):
            a.merge(WindowedSeries(bucket_s=10.0, alpha=0.02))


def _populated_monitor(events, zone="z0"):
    monitor = Monitor(_Clock(), zone=zone, horizon_s=7200.0)
    for at, value, bad in events:
        monitor.series("function", "resize", "invoke").observe(
            at, value=value, bad=bad
        )
        monitor.series("zone", zone, "job").observe(at, bad=bad)
    return monitor


def _linked_monitor(events, zone="z0"):
    """Zone availability plus uplink transfers: what fleet SLOs read."""
    monitor = Monitor(_Clock(), zone=zone, horizon_s=7200.0)
    for at, value, bad in events:
        monitor.series("zone", zone, "availability").observe(
            at, value=value, bad=bad, extras={"cold": float(bad)}
        )
        monitor.series("link", "uplink", "throughput").observe(
            at, value=value, extras={"bytes": 1e6, "radio_s": 1.0}
        )
    return monitor


def _replay_view(engine):
    """Everything a fleet health document takes from a replay."""
    end_s = engine.monitor.clock.now
    return {
        "slos": [slo.name for slo in engine.slos],
        "alerts": [alert.to_dict() for alert in engine.alerts],
        "log": list(engine.log),
        "health": engine.health(end_s),
        "stats": engine.monitor.stats(end_s),
    }


class TestSnapshot:
    @given(obs=observations())
    @settings(max_examples=15)
    def test_capture_restore_round_trip(self, obs):
        monitor = _populated_monitor(obs)
        wire = monitor.to_dict(end_s=600.0)
        restored = Monitor.from_dict(json.loads(canonical_json(wire)))
        assert restored.zone == monitor.zone
        assert restored.clock.now == 600.0
        assert canonical_json(restored.to_dict(end_s=600.0)) == canonical_json(
            wire
        )
        assert restored.stats(600.0) == monitor.stats(600.0)

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            Monitor.from_dict({"schema": "bogus/9"})
        with pytest.raises(ValueError):
            merge_snapshots([{"schema": "bogus/9"}])

    @given(obs=observations(), n_shards=st.sampled_from([1, 2, 4]))
    @settings(max_examples=15)
    def test_sharded_merge_matches_single_monitor(self, obs, n_shards):
        whole = _populated_monitor(obs).to_dict(end_s=600.0)
        shards = [
            _populated_monitor(obs[i::n_shards]) for i in range(n_shards)
        ]
        merged = merge_snapshots([m.to_dict(end_s=600.0) for m in shards])
        assert merged.zone == "fleet"
        assert canonical_json(merged.to_dict(end_s=600.0)) == canonical_json(
            {**whole, "zone": "fleet"}
        )

    @given(obs=observations(), n_shards=st.sampled_from([2, 3]))
    @settings(max_examples=15)
    def test_merge_leaves_inputs_unchanged(self, obs, n_shards):
        shards = [
            _populated_monitor(obs[i::n_shards], zone=f"z{i % 2}").to_dict(
                end_s=600.0
            )
            for i in range(n_shards)
        ]
        before = [canonical_json(s) for s in shards]
        merged = merge_snapshots(shards)
        for key in merged.entities():
            merged.series(*key).observe(599.0, value=1.0, bad=True)
        assert [canonical_json(s) for s in shards] == before

    @given(obs=observations())
    @settings(max_examples=15)
    def test_fleet_replay_leaves_merged_snapshot_unchanged(self, obs):
        shards = [
            _linked_monitor(obs[i::2], zone=f"z{i}").to_dict(end_s=600.0)
            for i in range(2)
        ]
        merged = merge_snapshots(shards)
        before = canonical_json(merged.to_dict(end_s=600.0))
        engine = replay_fleet_slos(merged)
        view = _replay_view(engine)
        # The replay reads the merged monitor itself, and adds nothing
        # to it (not even an empty series).
        assert engine.monitor is merged
        assert canonical_json(merged.to_dict(end_s=600.0)) == before
        assert view == _replay_view(
            replay_fleet_slos(Monitor.from_dict(json.loads(before)))
        )

    def test_fleet_replay_of_a_stall_fires_and_keeps_bytes(self):
        stalls = [(float(t), 60.0, False) for t in range(200, 320, 10)]
        merged = merge_snapshots([_linked_monitor(stalls).to_dict(end_s=900.0)])
        before = canonical_json(merged.to_dict(end_s=900.0))
        engine = replay_fleet_slos(merged)
        assert any(a.slo == "uplink-stall" for a in engine.alerts)
        assert canonical_json(merged.to_dict(end_s=900.0)) == before

    def test_merge_order_independent(self):
        a = _populated_monitor([(1.0, 1.0, False)], zone="za").to_dict(10.0)
        b = _populated_monitor([(2.0, 2.0, True)], zone="zb").to_dict(10.0)
        ab = merge_snapshots([a, b])
        ba = merge_snapshots([b, a])
        assert canonical_json(ab.to_dict(10.0)) == canonical_json(
            ba.to_dict(10.0)
        )

    def test_empty_merge_is_an_empty_snapshot(self):
        merged = merge_snapshots([])
        assert merged.entities() == []
        assert merged.zone == "fleet"
        assert merged.clock.now == 0.0
        json.loads(canonical_json(merged.to_dict(end_s=0.0)))  # serializable

    def test_merge_extends_horizon_and_end_time(self):
        a = Monitor(_Clock(), zone="za", horizon_s=3600.0).to_dict(end_s=60.0)
        b = Monitor(_Clock(), zone="zb", horizon_s=7200.0).to_dict(end_s=90.0)
        for inputs in ([a, b], [b, a]):
            merged = merge_snapshots(inputs)
            assert merged.horizon_s == 7200.0
            assert merged.clock.now == 90.0

    def test_merge_rejects_mismatched_geometry(self):
        a = Monitor(_Clock(), bucket_s=10.0).to_dict(end_s=0.0)
        b = Monitor(_Clock(), bucket_s=5.0).to_dict(end_s=0.0)
        c = Monitor(_Clock(), alpha=0.02).to_dict(end_s=0.0)
        with pytest.raises(ValueError):
            merge_snapshots([a, b])
        with pytest.raises(ValueError):
            merge_snapshots([a, c])
