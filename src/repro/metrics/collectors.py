"""Metric collector primitives."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Mapping, Optional


def _require_finite(name: str, value: float, what: str = "value") -> float:
    """Reject NaN/inf before they poison a collector.

    A single non-finite observation silently corrupts every downstream
    aggregate (sums, means, digests), so collectors fail fast instead.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name!r}: {what} must be finite, got {value}")
    return value


_INF = math.inf


class Counter:
    """A monotonically increasing total."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative) to the total."""
        amount = float(amount)
        if not 0.0 <= amount < _INF:  # one test for NaN, inf and negatives
            _require_finite(self.name, amount, "increment")
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self._value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A last-written value."""

    def __init__(self, name: str, initial: float = 0.0) -> None:
        self.name = name
        self._value = float(initial)

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value

    def set(self, value: float) -> None:
        """Overwrite the gauge (with a finite value)."""
        self._value = _require_finite(self.name, value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (finite, may be negative)."""
        self._value += _require_finite(self.name, delta, "delta")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self._value}>"


class Summary:
    """Streaming distribution summary with exact quantiles.

    All observations are retained (runs here are at most a few hundred
    thousand samples), so quantiles are exact rather than sketched.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._sum = 0.0
        self._sum_sq = 0.0

    def observe(self, value: float) -> None:
        """Record one (finite) observation."""
        value = float(value)
        if not -_INF < value < _INF:  # NaN fails both comparisons
            _require_finite(self.name, value, "observation")
        self._samples.append(value)
        self._sorted = None
        self._sum += value
        self._sum_sq += value * value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations."""
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean; ``nan`` when empty."""
        return self._sum / len(self._samples) if self._samples else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation; ``nan`` when empty."""
        return min(self._samples) if self._samples else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation; ``nan`` when empty."""
        return max(self._samples) if self._samples else math.nan

    @property
    def stddev(self) -> float:
        """Population standard deviation; ``nan`` when empty."""
        n = len(self._samples)
        if n == 0:
            return math.nan
        mean = self._sum / n
        variance = max(self._sum_sq / n - mean * mean, 0.0)
        return math.sqrt(variance)

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile via linear interpolation; ``nan`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return math.nan
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        data = self._sorted
        if len(data) == 1:
            return data[0]
        position = q * (len(data) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return data[lower]
        weight = position - lower
        return data[lower] * (1 - weight) + data[upper] * weight

    def percentile(self, p: float) -> float:
        """``p``-th percentile (``p`` in ``[0, 100]``)."""
        return self.quantile(p / 100.0)

    @property
    def samples(self) -> List[float]:
        """A copy of all recorded observations."""
        return list(self._samples)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Summary {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeightedAverage:
    """Average of a piecewise-constant signal, weighted by holding time.

    Used for queue lengths, battery level, instance-pool occupancy: call
    :meth:`update` whenever the value changes, passing the simulation time.
    """

    def __init__(self, name: str, initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._value = float(initial)
        self._last_time = float(start_time)
        self._weighted_sum = 0.0
        self._elapsed = 0.0

    @property
    def current(self) -> float:
        """The value currently held."""
        return self._value

    def update(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards in {self.name!r}: {now} < {self._last_time}"
            )
        span = now - self._last_time
        self._weighted_sum += self._value * span
        self._elapsed += span
        self._value = float(value)
        self._last_time = now

    def average(self, now: Optional[float] = None) -> float:
        """Time-weighted mean up to ``now`` (defaults to last update)."""
        weighted = self._weighted_sum
        elapsed = self._elapsed
        if now is not None:
            if now < self._last_time:
                raise ValueError("now precedes the last recorded update")
            span = now - self._last_time
            weighted += self._value * span
            elapsed += span
        return weighted / elapsed if elapsed > 0 else self._value


class MetricRegistry:
    """A flat namespace of metrics, keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._summaries: Dict[str, Summary] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, initial: float = 0.0) -> Gauge:
        """Get or create the gauge registered under ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, initial)
        return gauge

    def summary(self, name: str) -> Summary:
        """Get or create the summary registered under ``name``."""
        summary = self._summaries.get(name)
        if summary is None:
            summary = self._summaries[name] = Summary(name)
        return summary

    def snapshot(self) -> Dict[str, float]:
        """A flat dict of every scalar metric (summaries export mean/p50/p99)."""
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, summary in self._summaries.items():
            out[f"{name}.count"] = summary.count
            out[f"{name}.mean"] = summary.mean
            out[f"{name}.p50"] = summary.quantile(0.50)
            out[f"{name}.p99"] = summary.quantile(0.99)
        return out

    def names(self) -> List[str]:
        """Sorted names of every registered metric."""
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._summaries)
        )


def stable_digest(snapshot: Mapping[str, float]) -> str:
    """Canonical SHA-256 over a metric snapshot.

    Keys are sorted and values rendered with ``repr`` (full float
    precision, so any bit-level drift changes the digest) — the primitive
    the golden-trace regression harness and the chaos benchmark use to
    assert that two runs were *identical*, not merely similar.
    """
    lines = [f"{key}={snapshot[key]!r}" for key in sorted(snapshot)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "Summary",
    "TimeWeightedAverage",
    "stable_digest",
]
