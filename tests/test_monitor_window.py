"""Tests for sliding-window aggregation."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import QuantileSketch, WindowedSeries


class TestValidation:
    def test_bad_bucket(self):
        with pytest.raises(ValueError):
            WindowedSeries(bucket_s=0.0)

    def test_horizon_must_cover_a_bucket(self):
        with pytest.raises(ValueError):
            WindowedSeries(bucket_s=10.0, horizon_s=5.0)

    def test_bad_observation_time(self):
        series = WindowedSeries()
        with pytest.raises(ValueError):
            series.observe(-1.0)

    def test_bad_window(self):
        series = WindowedSeries()
        with pytest.raises(ValueError):
            series.aggregate(10.0, 0.0)


class TestAggregate:
    def test_counts_and_error_ratio(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, bad=True)
        series.observe(2.0)
        series.observe(3.0)
        agg = series.aggregate(now=5.0, window_s=10.0)
        assert agg.count == 3
        assert agg.bad == 1
        assert agg.error_ratio == pytest.approx(1 / 3)
        assert agg.rate_per_s == pytest.approx(0.3)

    def test_window_excludes_old_buckets(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(5.0, value=1.0)
        series.observe(95.0, value=3.0)
        agg = series.aggregate(now=100.0, window_s=30.0)
        assert agg.count == 1
        assert agg.mean == 3.0

    def test_window_is_bucket_aligned(self):
        # The oldest included bucket is the one containing now-window:
        # coverage is at least window_s, at most one extra bucket.
        series = WindowedSeries(bucket_s=10.0)
        series.observe(12.0)  # bucket [10, 20)
        agg = series.aggregate(now=75.0, window_s=60.0)  # covers from 15.0
        assert agg.count == 1  # bucket 10-20 intersects (15, 75]

    def test_mean_and_quantiles_only_from_valued_events(self):
        series = WindowedSeries()
        series.observe(1.0)  # no value
        series.observe(2.0, value=4.0)
        agg = series.aggregate(10.0, 60.0)
        assert agg.count == 2
        assert agg.mean == 4.0
        assert agg.quantile(0.5) == pytest.approx(4.0, rel=0.03)

    def test_empty_window(self):
        series = WindowedSeries()
        agg = series.aggregate(1000.0, 10.0)
        assert agg.count == 0
        assert agg.error_ratio == 0.0
        assert agg.mean == 0.0
        assert agg.quantile(0.5) is None

    def test_extras_sum_and_max(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(1.0, extras={"bytes": 100.0}, extras_max={"depth": 2.0})
        series.observe(2.0, extras={"bytes": 50.0}, extras_max={"depth": 5.0})
        series.observe(15.0, extras={"bytes": 7.0}, extras_max={"depth": 1.0})
        agg = series.aggregate(20.0, 30.0)
        assert agg.extra("bytes") == 157.0
        assert agg.extra_max("depth") == 5.0
        assert agg.extra("missing") == 0.0
        assert agg.extra_max("missing", default=-1.0) == -1.0


class TestPruning:
    def test_old_buckets_are_pruned(self):
        series = WindowedSeries(bucket_s=10.0, horizon_s=100.0)
        for t in range(0, 1000, 10):
            series.observe(float(t))
        # Memory bounded by horizon: ~horizon/bucket (+ slack) buckets.
        assert len(series._buckets) <= int(100.0 / 10.0) + 2
        assert series.total_count == 100  # lifetime count survives pruning

    def test_recent_window_unaffected_by_pruning(self):
        series = WindowedSeries(bucket_s=10.0, horizon_s=100.0)
        for t in range(0, 500, 10):
            series.observe(float(t), value=1.0)
        agg = series.aggregate(now=495.0, window_s=50.0)
        assert agg.count == 6  # buckets 440..490 (bucket-aligned window)


def _reference_fold(series, now, window_s):
    """Walk every retained bucket in sorted order; merge sketches eagerly."""
    first = int(max(0.0, now - window_s) // series.bucket_s)
    last = int(now // series.bucket_s)
    out = {
        "count": 0, "bad": 0, "value_sum": 0.0, "extras": {},
        "extras_max": {}, "sketch": QuantileSketch(series.alpha),
    }
    for index in sorted(series._buckets):
        if index < first or index > last:
            continue
        bucket = series._buckets[index]
        out["count"] += bucket.count
        out["bad"] += bucket.bad
        out["value_sum"] += bucket.value_sum
        out["sketch"].merge(bucket.sketch)
        for name, value in bucket.extras.items():
            out["extras"][name] = out["extras"].get(name, 0.0) + value
        for name, value in bucket.extras_max.items():
            prev = out["extras_max"].get(name)
            if prev is None or value > prev:
                out["extras_max"][name] = value
    return out


#: Values such as n/7 round on every addition, so a fold that summed
#: buckets in another order would land on different bits.
_INEXACT = st.integers(1, 10**6).map(lambda n: n / 7.0)

_EVENTS = st.lists(
    st.tuples(
        st.floats(0.0, 900.0, allow_nan=False),
        st.one_of(
            st.none(), _INEXACT.map(lambda v: v % 120.0),
            st.floats(0.0, 120.0, allow_nan=False),
        ),
        st.booleans(),
        st.one_of(_INEXACT, st.floats(0.0, 1e6, allow_nan=False)),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    max_size=60,
)


def _build(events, bucket_s, horizon_s):
    series = WindowedSeries(bucket_s=bucket_s, horizon_s=horizon_s)
    for at, value, bad, nbytes, depth in events:
        series.observe(
            at, value=value, bad=bad, extras={"bytes": nbytes},
            extras_max={"depth": depth},
        )
    return series


class TestFoldEquivalence:
    """The bucket-range fold equals a full sorted walk, bit for bit."""

    @given(
        events=_EVENTS,
        late_events=_EVENTS,
        bucket_s=st.sampled_from([1.0, 7.5, 10.0]),
        horizon_s=st.sampled_from([30.0, 120.0, 3600.0]),
        merged=st.booleans(),
        now=st.floats(-5.0, 1200.0, allow_nan=False),
        window_s=st.floats(0.5, 5000.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregate_matches_reference_fold(
        self, events, late_events, bucket_s, horizon_s, merged, now,
        window_s,
    ):
        series = _build(events, bucket_s, horizon_s)  # short horizons prune
        if merged:
            # Merging inserts the other series' buckets out of index order.
            later = _build(
                [(at + 450.0, *rest) for at, *rest in late_events],
                bucket_s, horizon_s,
            )
            later.merge(series)
            series = later
        agg = series.aggregate(now, window_s)
        ref = _reference_fold(series, now, window_s)
        assert agg.count == ref["count"]
        assert agg.bad == ref["bad"]
        assert agg.value_sum == ref["value_sum"]
        assert agg.extras == ref["extras"]
        assert agg.extras_max == ref["extras_max"]
        assert agg.valued == ref["sketch"].count
        assert agg.mean == (
            ref["value_sum"] / ref["sketch"].count
            if ref["sketch"].count else 0.0
        )
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert agg.quantile(q) == ref["sketch"].quantile(q)
        for threshold in (0.0, 1e-12, 0.5, 5.0, 30.0, 200.0):
            assert agg.count_at_most(threshold) == (
                ref["sketch"].count_at_most(threshold)
            )
        assert agg.sketch.to_dict() == ref["sketch"].to_dict()
        first = int(max(0.0, now - window_s) // bucket_s)
        last = int(now // bucket_s)
        assert series.bucket_extras(now, window_s, ("bytes",)) == [
            ((i + 1) * bucket_s, {"bytes": series._buckets[i].extras["bytes"]})
            for i in sorted(series._buckets)
            if first <= i <= last
        ]

    @pytest.mark.parametrize("far_buckets", [0, 5])  # range or sorted walk
    def test_sums_fold_oldest_bucket_first(self, far_buckets):
        series = WindowedSeries(bucket_s=10.0)
        for at, value in ((25.0, 0.3), (5.0, 0.1), (15.0, 0.2)):
            series.observe(at, value=value, extras={"usd": value})
        for k in range(far_buckets):
            series.observe(100.0 + 10.0 * k, value=1.0)
        agg = series.aggregate(now=30.0, window_s=30.0)
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in binary floats.
        assert agg.value_sum == (0.0 + 0.1 + 0.2) + 0.3 != 0.6
        assert agg.extra("usd") == agg.value_sum

    def test_wide_window_walks_retained_buckets_not_the_range(self):
        series = WindowedSeries(bucket_s=1.0, horizon_s=10.0)
        series.observe(3.0, value=1.0)
        started = time.perf_counter()
        agg = series.aggregate(now=1e8, window_s=1e8)
        assert time.perf_counter() - started < 1.0  # 1e8 indices would not
        assert agg.count == 1

    def test_now_before_first_bucket_is_empty(self):
        series = WindowedSeries(bucket_s=10.0)
        series.observe(500.0, value=1.0)
        agg = series.aggregate(now=100.0, window_s=50.0)
        assert agg.count == 0 and agg.valued == 0
        assert agg.quantile(0.5) is None
        assert agg.count_at_most(10.0) == 0

    def test_sketch_merges_once_and_only_on_read(self):
        series = WindowedSeries(bucket_s=10.0)
        for at in (1.0, 11.0, 21.0):
            series.observe(at, value=at)
        agg = series.aggregate(now=30.0, window_s=30.0)
        assert agg._sketch is None  # nothing merged by the fold itself
        assert agg.count_at_most(15.0) == 2 and agg._sketch is None
        sketch = agg.sketch
        assert agg.sketch is sketch and sketch.count == 3
        # The merged sketch is new; bucket sketches are left untouched.
        assert [b.sketch.count for b in series._buckets.values()] == [1, 1, 1]

