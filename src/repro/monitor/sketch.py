"""A deterministic, mergeable quantile sketch (DDSketch-style).

The monitoring plane needs streaming percentiles (p50/p95/p99) over
sliding windows, which means per-bucket sketches that merge cheaply
when a window is aggregated.  Exact summaries (``repro.metrics``) keep
every sample — fine for end-of-run reporting, wrong for an always-on
monitor.  This sketch stores only logarithmic bucket counts:

* values are mapped to buckets by ``ceil(log_gamma(value))`` with
  ``gamma = (1 + alpha) / (1 - alpha)``, which bounds the *relative*
  error of any reported quantile by ``alpha`` (default 1%);
* zero and sub-``min_value`` observations land in a dedicated zero
  bucket (simulated durations are never negative);
* merging two sketches adds bucket counts — associative, commutative,
  and byte-deterministic regardless of merge order.

Nothing here reads a wall clock, draws randomness, or depends on dict
iteration order of *inputs*: quantile queries walk bucket indices in
sorted order, so two same-seed runs produce bit-identical answers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional

__all__ = ["QuantileSketch"]

#: Observations below this magnitude collapse into the zero bucket.
_MIN_TRACKED = 1e-9


class QuantileSketch:
    """Relative-error quantile sketch over non-negative observations."""

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_zero_count", "_buckets")

    def __init__(self, alpha: float = 0.01) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._zero_count = 0
        self._buckets: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"sketch values must be finite and >= 0: {value}")
        if value < _MIN_TRACKED:
            self._zero_count += count
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (alphas must match)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {other.alpha} != {self.alpha}"
            )
        self._zero_count += other._zero_count
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    def copy(self) -> "QuantileSketch":
        """An independent copy (used when snapshotting a series)."""
        twin = QuantileSketch.__new__(QuantileSketch)
        twin.alpha = self.alpha
        twin._gamma = self._gamma
        twin._log_gamma = self._log_gamma
        twin._zero_count = self._zero_count
        twin._buckets = dict(self._buckets)
        return twin

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"], alpha: float = 0.01
               ) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``."""
        out = cls(alpha)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state: alpha, zero count, bucket counts keyed by index.

        Bucket keys are stringified ints (JSON object keys must be
        strings); counts are exact ints, so a round trip through
        canonical JSON is lossless and merge-compatible.
        """
        return {
            "alpha": self.alpha,
            "zero": self._zero_count,
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(alpha=float(data["alpha"]))  # type: ignore[arg-type]
        sketch._zero_count = int(data.get("zero", 0))  # type: ignore[arg-type]
        buckets: Mapping[str, int] = data.get("buckets", {})  # type: ignore[assignment]
        for key in buckets:
            count = int(buckets[key])
            if count < 0:
                raise ValueError(f"bucket counts must be >= 0: {key}={count}")
            if count:
                sketch._buckets[int(key)] = count
        return sketch

    # -- querying ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._zero_count + sum(self._buckets.values())

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` (0..1), or ``None`` when empty.

        Returns the geometric midpoint of the owning bucket, so the
        answer is within ``alpha`` relative error of the true quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return None
        rank = q * (total - 1)
        seen = self._zero_count
        if rank < seen or not self._buckets:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                break
        # Geometric midpoint of (gamma^(i-1), gamma^i].
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def count_at_most(self, threshold: float) -> int:
        """Observations ``<= threshold`` (bucket-resolution, deterministic).

        The workhorse of threshold SLIs ("fraction of requests under
        300 ms"): a bucket counts as under the threshold when its upper
        bound is.
        """
        if threshold < 0.0:
            return 0
        total = self._zero_count
        if threshold < _MIN_TRACKED:
            return total
        limit = math.ceil(math.log(threshold) / self._log_gamma)
        for index, count in self._buckets.items():
            if index <= limit:
                total += count
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantileSketch alpha={self.alpha} count={self.count} "
            f"buckets={len(self._buckets)}>"
        )
