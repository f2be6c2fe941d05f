"""Tests for the deterministic quantile sketch."""

import math

import pytest

from repro.monitor import QuantileSketch


class TestAdd:
    def test_rejects_non_finite(self):
        sketch = QuantileSketch()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sketch.add(bad)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(-0.1)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(1.0, count=-1)

    def test_zero_count_is_a_noop(self):
        sketch = QuantileSketch()
        sketch.add(1.0, count=0)
        assert sketch.count == 0

    def test_zero_and_tiny_values_share_the_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(1e-12)
        assert sketch.count == 2
        assert sketch.quantile(0.5) == 0.0


class TestQuantiles:
    def test_empty_sketch_returns_none(self):
        assert QuantileSketch().quantile(0.5) is None

    def test_invalid_q_rejected(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                sketch.quantile(bad)

    def test_relative_accuracy_bound(self):
        # The DDSketch guarantee: every quantile answer is within the
        # configured relative accuracy of a true sample value.
        alpha = 0.01
        sketch = QuantileSketch(alpha)
        values = [0.1 * i for i in range(1, 101)]  # 0.1 .. 10.0
        for value in values:
            sketch.add(value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            answer = sketch.quantile(q)
            rank = min(len(values) - 1, int(q * len(values)))
            truth = sorted(values)[rank]
            assert abs(answer - truth) <= alpha * truth + 0.1, (q, answer, truth)

    def test_single_value(self):
        sketch = QuantileSketch(0.01)
        sketch.add(5.0)
        assert sketch.quantile(0.0) == pytest.approx(5.0, rel=0.01)
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.01)


class TestCountAtMost:
    def test_exact_at_threshold(self):
        sketch = QuantileSketch(0.01)
        for i in range(1, 101):
            sketch.add(float(i))
        at_most = sketch.count_at_most(50.0)
        assert abs(at_most - 50) <= 2

    def test_zero_bucket_counts(self):
        sketch = QuantileSketch()
        sketch.add(0.0, count=3)
        sketch.add(100.0)
        assert sketch.count_at_most(1.0) == 3

    def test_threshold_below_everything(self):
        sketch = QuantileSketch()
        sketch.add(10.0)
        assert sketch.count_at_most(1e-12) == 0


class TestMerge:
    def test_merge_matches_union(self):
        a, b, union = QuantileSketch(0.01), QuantileSketch(0.01), QuantileSketch(0.01)
        for i in range(1, 51):
            a.add(float(i))
            union.add(float(i))
        for i in range(51, 101):
            b.add(float(i))
            union.add(float(i))
        a.merge(b)
        assert a.count == union.count
        for q in (0.1, 0.5, 0.9):
            assert a.quantile(q) == union.quantile(q)

    def test_merge_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merged_classmethod(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add(1.0)
        b.add(2.0)
        merged = QuantileSketch.merged([a, b])
        assert merged.count == 2
        assert a.count == 1  # inputs untouched


class TestDeterminism:
    def test_same_stream_same_answers(self):
        def build():
            sketch = QuantileSketch(0.02)
            for i in range(1, 1000):
                sketch.add(0.001 * i * i)
            return sketch

        a, b = build(), build()
        for q in (0.01, 0.5, 0.99):
            assert a.quantile(q) == b.quantile(q)  # bit-equal, not approx
