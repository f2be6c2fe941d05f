"""Sliding-window aggregation over bucketed sim-time observations.

A :class:`WindowedSeries` accepts timestamped observations (an optional
value, a good/bad flag, and named extras) and bins them into fixed-width
time buckets.  Querying :meth:`aggregate` folds every bucket that
intersects ``(now - window_s, now]`` into one :class:`WindowAggregate`:
event count, bad count, value sum, summed extras (bytes, cost, cold
starts), maxed extras (queue depth) and value quantiles.  A fold sums
the counts of the in-window buckets only; the aggregate keeps those
buckets and derives everything else when it is first read.  In
particular the merged
:class:`~repro.monitor.sketch.QuantileSketch` is built only when a
quantile is read, while the valued count and threshold counts sum per
bucket (exact integers).

Buckets are the determinism boundary: windows are aligned to bucket
edges, so an aggregate covers *at least* ``window_s`` and at most one
extra bucket of history — the same answer for the same sim clock, every
run.  Buckets older than the retention horizon are pruned on write, so
memory stays bounded by ``horizon_s / bucket_s`` regardless of run
length.

Window folds cost what is in the window, not what is retained.  A
series keeps its retained bucket indices in one ascending list.  A new
bucket is appended, because live observations land at a span's end,
which is the current sim time; an out-of-order observation, a
:meth:`~WindowedSeries.merge` and :meth:`~WindowedSeries.from_dict`
insert or sort instead.  A query window is then two bisects and a
slice, and pruning drops a bisected prefix.  Buckets still fold in
ascending index order, so every float sum keeps its bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.monitor.sketch import QuantileSketch

__all__ = ["WindowAggregate", "WindowedSeries"]


class _Bucket:
    __slots__ = ("count", "bad", "value_sum", "sketch", "extras", "extras_max")

    def __init__(self, sketch: QuantileSketch) -> None:
        self.count = 0
        self.bad = 0
        self.value_sum = 0.0
        self.sketch = sketch
        self.extras: Dict[str, float] = {}
        self.extras_max: Dict[str, float] = {}


class WindowAggregate:
    """The fold of every bucket intersecting one query window.

    Counts and the value sum fold when the aggregate is built.  Extras,
    the valued count, threshold counts and the merged sketch are derived
    from the held in-window buckets when read, in the same ascending
    bucket order, so read an aggregate before its series records more
    observations.
    """

    __slots__ = (
        "window_s", "alpha", "count", "bad", "value_sum", "_buckets",
        "_sketch", "_extras", "_extras_max",
    )

    def __init__(
        self, window_s: float, alpha: float, buckets: Sequence[_Bucket] = ()
    ) -> None:
        self.window_s = window_s
        self.alpha = alpha
        self._buckets = buckets
        count = bad = 0
        value_sum = 0.0
        for bucket in buckets:
            count += bucket.count
            bad += bucket.bad
            value_sum += bucket.value_sum
        self.count = count
        self.bad = bad
        self.value_sum = value_sum
        self._sketch: Optional[QuantileSketch] = None
        self._extras: Optional[Dict[str, float]] = None
        self._extras_max: Optional[Dict[str, float]] = None

    @property
    def sketch(self) -> QuantileSketch:
        """The in-window bucket sketches merged into one (built once)."""
        if self._sketch is None:
            self._sketch = QuantileSketch.merged(
                (bucket.sketch for bucket in self._buckets), self.alpha
            )
        return self._sketch

    @property
    def valued(self) -> int:
        """Events that carried a value (the sketch's count)."""
        return sum(bucket.sketch.count for bucket in self._buckets)

    def count_at_most(self, threshold: float) -> int:
        """Valued events ``<= threshold``, at sketch-bucket resolution."""
        return sum(
            bucket.sketch.count_at_most(threshold) for bucket in self._buckets
        )

    @property
    def extras(self) -> Dict[str, float]:
        """Summed extras over the window, by name (built once)."""
        if self._extras is None:
            extras: Dict[str, float] = {}
            for bucket in self._buckets:
                for name in bucket.extras:
                    extras[name] = extras.get(name, 0.0) + bucket.extras[name]
            self._extras = extras
        return self._extras

    @property
    def extras_max(self) -> Dict[str, float]:
        """Maxed extras over the window, by name (built once)."""
        if self._extras_max is None:
            extras_max: Dict[str, float] = {}
            for bucket in self._buckets:
                for name in bucket.extras_max:
                    prev = extras_max.get(name)
                    if prev is None or bucket.extras_max[name] > prev:
                        extras_max[name] = bucket.extras_max[name]
            self._extras_max = extras_max
        return self._extras_max

    @property
    def rate_per_s(self) -> float:
        """Events per second over the window."""
        return self.count / self.window_s if self.window_s > 0 else 0.0

    @property
    def error_ratio(self) -> float:
        """Bad events / all events (0.0 when the window is empty)."""
        return self.bad / self.count if self.count else 0.0

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when no values were recorded)."""
        valued = self.valued
        return self.value_sum / valued if valued else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Windowed value quantile, or ``None`` with no valued events."""
        return self.sketch.quantile(q)

    def extra(self, name: str, default: float = 0.0) -> float:
        """Summed extra ``name`` over the window."""
        return self.extras.get(name, default)

    def extra_max(self, name: str, default: float = 0.0) -> float:
        """Maxed extra ``name`` over the window."""
        return self.extras_max.get(name, default)


class WindowedSeries:
    """Time-bucketed observations supporting sliding-window queries."""

    __slots__ = (
        "bucket_s", "horizon_s", "alpha", "_buckets", "_indices",
        "total_count",
    )

    def __init__(
        self,
        bucket_s: float = 10.0,
        horizon_s: float = 3600.0,
        alpha: float = 0.01,
    ) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if horizon_s < bucket_s:
            raise ValueError("horizon_s must cover at least one bucket")
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        self.alpha = alpha
        self._buckets: Dict[int, _Bucket] = {}
        #: The keys of ``_buckets``, ascending.
        self._indices: List[int] = []
        self.total_count = 0

    def observe(
        self,
        at: float,
        value: Optional[float] = None,
        bad: bool = False,
        extras: Optional[Mapping[str, float]] = None,
        extras_max: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record one event at sim time ``at``.

        ``value`` (when given) feeds the quantile sketch and value sum;
        ``bad`` feeds the error ratio; ``extras`` accumulate by sum and
        ``extras_max`` by max within the bucket.
        """
        if not math.isfinite(at) or at < 0.0:
            raise ValueError(f"observation time must be finite and >= 0: {at}")
        index = int(at // self.bucket_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = _Bucket(QuantileSketch(self.alpha))
            self._buckets[index] = bucket
            indices = self._indices
            if not indices or index > indices[-1]:
                indices.append(index)  # live observations arrive in order
            else:
                insort(indices, index)
            self._prune(index)
        bucket.count += 1
        self.total_count += 1
        if bad:
            bucket.bad += 1
        if value is not None:
            bucket.value_sum += value
            bucket.sketch.add(value)
        if extras:
            for name in extras:
                bucket.extras[name] = bucket.extras.get(name, 0.0) + extras[name]
        if extras_max:
            for name in extras_max:
                prev = bucket.extras_max.get(name)
                if prev is None or extras_max[name] > prev:
                    bucket.extras_max[name] = extras_max[name]

    def _prune(self, newest_index: int) -> None:
        floor_index = newest_index - int(self.horizon_s // self.bucket_s) - 1
        indices = self._indices
        cut = bisect_left(indices, floor_index)
        if cut:
            for index in indices[:cut]:
                del self._buckets[index]
            del indices[:cut]

    def merge(self, other: "WindowedSeries") -> None:
        """Fold ``other`` into this series, bucket-index aligned.

        Counts and value sums add, sketches merge, summed extras add and
        maxed extras take the max — bucket by bucket, walked in sorted
        index order so a fixed merge order yields byte-identical floats.
        Bucket width and sketch alpha must match (the horizon is taken
        as ``max`` of the two); no pruning happens here, so merging
        disjoint shards never drops history the caller recorded.
        """
        if other.bucket_s != self.bucket_s:
            raise ValueError(
                f"cannot merge series with bucket_s {other.bucket_s} != "
                f"{self.bucket_s}"
            )
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge series with alpha {other.alpha} != {self.alpha}"
            )
        if other.horizon_s > self.horizon_s:
            self.horizon_s = other.horizon_s
        for index in other._indices:
            theirs = other._buckets[index]
            bucket = self._buckets.get(index)
            if bucket is None:
                bucket = _Bucket(QuantileSketch(self.alpha))
                self._buckets[index] = bucket
                insort(self._indices, index)
            bucket.count += theirs.count
            bucket.bad += theirs.bad
            bucket.value_sum += theirs.value_sum
            bucket.sketch.merge(theirs.sketch)
            for name in theirs.extras:
                bucket.extras[name] = (
                    bucket.extras.get(name, 0.0) + theirs.extras[name]
                )
            for name in theirs.extras_max:
                prev = bucket.extras_max.get(name)
                if prev is None or theirs.extras_max[name] > prev:
                    bucket.extras_max[name] = theirs.extras_max[name]
        self.total_count += other.total_count

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state; bucket keys are stringified indices.

        Extras maps are emitted key-sorted, and the geometry and maxed
        extras as floats (the types :meth:`from_dict` restores), so the
        canonical JSON of two equal series is byte-identical.
        """
        buckets: Dict[str, object] = {}
        for index in self._indices:
            bucket = self._buckets[index]
            entry: Dict[str, object] = {
                "count": bucket.count,
                "bad": bucket.bad,
                "value_sum": bucket.value_sum,
                "sketch": bucket.sketch.to_dict(),
            }
            if bucket.extras:
                entry["extras"] = {
                    k: bucket.extras[k] for k in sorted(bucket.extras)
                }
            if bucket.extras_max:
                entry["extras_max"] = {
                    k: float(bucket.extras_max[k])
                    for k in sorted(bucket.extras_max)
                }
            buckets[str(index)] = entry
        return {
            "bucket_s": float(self.bucket_s),
            "horizon_s": float(self.horizon_s),
            "alpha": float(self.alpha),
            "total_count": self.total_count,
            "buckets": buckets,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WindowedSeries":
        """Rebuild a series from :meth:`to_dict` output."""
        series = cls(
            bucket_s=float(data["bucket_s"]),  # type: ignore[arg-type]
            horizon_s=float(data["horizon_s"]),  # type: ignore[arg-type]
            alpha=float(data["alpha"]),  # type: ignore[arg-type]
        )
        series.total_count = int(data.get("total_count", 0))  # type: ignore[arg-type]
        buckets: Mapping[str, Mapping[str, object]]
        buckets = data.get("buckets", {})  # type: ignore[assignment]
        for key in buckets:
            entry = buckets[key]
            bucket = _Bucket(QuantileSketch.from_dict(entry["sketch"]))  # type: ignore[arg-type]
            bucket.count = int(entry["count"])  # type: ignore[arg-type]
            bucket.bad = int(entry.get("bad", 0))  # type: ignore[arg-type]
            bucket.value_sum = float(entry.get("value_sum", 0.0))  # type: ignore[arg-type]
            extras: Mapping[str, float] = entry.get("extras", {})  # type: ignore[assignment]
            bucket.extras = {k: float(extras[k]) for k in extras}
            extras_max: Mapping[str, float] = entry.get("extras_max", {})  # type: ignore[assignment]
            bucket.extras_max = {k: float(extras_max[k]) for k in extras_max}
            series._buckets[int(key)] = bucket
        series._indices = sorted(series._buckets)
        return series

    def _window_indices(self, now: float, window_s: float) -> List[int]:
        """Ascending indices of retained buckets intersecting the window.

        The window is bucket-aligned: the oldest included bucket is the
        one containing ``now - window_s``.  Two bisects of the sorted
        retained indices bound it.
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        first = int(max(0.0, now - window_s) // self.bucket_s)
        last = int(now // self.bucket_s)
        indices = self._indices
        return indices[bisect_left(indices, first):bisect_right(indices, last)]

    def bucket_extras(
        self, now: float, window_s: float, names: Sequence[str]
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Per-bucket summed extras over ``(now - window_s, now]``.

        Returns ``(bucket_end_s, {name: sum})`` pairs, oldest first,
        for buckets that recorded at least one event — the raw points a
        short-horizon forecaster fits a trend to.  Window alignment
        matches :meth:`aggregate`.
        """
        out: List[Tuple[float, Dict[str, float]]] = []
        for index in self._window_indices(now, window_s):
            bucket = self._buckets[index]
            out.append((
                (index + 1) * self.bucket_s,
                {name: bucket.extras.get(name, 0.0) for name in names},
            ))
        return out

    def aggregate(self, now: float, window_s: float) -> WindowAggregate:
        """Fold buckets intersecting ``(now - window_s, now]``.

        The window is bucket-aligned: the oldest included bucket is the
        one containing ``now - window_s``, so coverage is at least
        ``window_s`` (never less) and the result depends only on the
        recorded observations and the query arguments.  Buckets fold in
        ascending index order, so float sums are reproducible; what the
        fold defers is listed on :class:`WindowAggregate`.
        """
        buckets = self._buckets
        return WindowAggregate(
            window_s,
            self.alpha,
            [buckets[i] for i in self._window_indices(now, window_s)],
        )
