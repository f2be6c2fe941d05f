"""Property-based tests for the fault subsystem's core invariants.

Three contracts the degradation machinery leans on:

* schedule normalization leaves no two windows of one ``(kind, target)``
  group overlapping or touching — queries see at most one active window;
* retry backoff is monotone in the attempt index and stays inside the
  jitter envelope — degradation never *shortens* a wait by retrying more;
* retry accounting is conservative: every dollar a failed attempt billed
  shows up in ``wasted_usd``, and the sum over all outcomes equals the
  platform's own ledger.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    RetriesExhaustedError,
    RetryPolicy,
    ServerlessPlatform,
    invoke_with_retries,
)
from repro.sim import Simulator
from repro.sim.rng import RngStream

# Magnitude-agnostic kinds keep window generation simple: any >= 0
# magnitude is legal for outages, and stragglers accept anything >= 1.
_KINDS = st.sampled_from(
    [FaultKind.LINK_OUTAGE, FaultKind.ZONE_OUTAGE, FaultKind.STRAGGLER]
)
_TARGETS = st.sampled_from([None, "uplink", "downlink"])


@st.composite
def windows(draw):
    start = draw(st.floats(min_value=0.0, max_value=1e4))
    length = draw(st.floats(min_value=1e-3, max_value=1e3))
    kind = draw(_KINDS)
    magnitude = draw(st.floats(min_value=1.0, max_value=10.0))
    return FaultWindow(
        kind, start, start + length, target=draw(_TARGETS), magnitude=magnitude
    )


class TestScheduleNormalization:
    @given(ws=st.lists(windows(), min_size=0, max_size=30))
    @settings(max_examples=120)
    def test_normalized_windows_never_overlap_within_a_group(self, ws):
        schedule = FaultSchedule(ws)
        groups = {}
        for window in schedule.windows:
            groups.setdefault((window.kind, window.target), []).append(window)
        for group in groups.values():
            ordered = sorted(group, key=lambda w: w.start)
            for left, right in zip(ordered, ordered[1:]):
                # Strictly apart: touching windows must have been merged.
                assert left.end < right.start

    @given(ws=st.lists(windows(), min_size=1, max_size=30))
    @settings(max_examples=120)
    def test_normalization_preserves_coverage(self, ws):
        """Every instant inside any input window is active afterwards."""
        schedule = FaultSchedule(ws)
        for window in ws:
            for t in (window.start, (window.start + window.end) / 2.0):
                assert schedule.is_active(window.kind, t, window.target)

    @given(ws=st.lists(windows(), min_size=0, max_size=30))
    @settings(max_examples=60)
    def test_normalization_is_idempotent(self, ws):
        once = FaultSchedule(ws)
        twice = FaultSchedule(once.windows)
        assert once.windows == twice.windows


def _any_kind_window(kind, start, length, target, fraction):
    # STRAGGLER needs a slowdown >= 1; every other kind accepts (0, 1).
    straggler = kind is FaultKind.STRAGGLER
    magnitude = 1.0 + 9.0 * fraction if straggler else fraction
    return FaultWindow(kind, start, start + length, target=target,
                       magnitude=magnitude)


_DENSE_WINDOWS = st.lists(
    st.builds(
        _any_kind_window,
        st.sampled_from(list(FaultKind)),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-3, max_value=30.0),
        _TARGETS,
        st.floats(min_value=0.05, max_value=0.95),
    ),
    max_size=20,
)


def _brute_active(schedule, kind, t, target):
    """The first window, in start order, of ``kind`` covering ``t``."""
    hits = [
        w for w in schedule.windows
        if w.kind is kind and w.applies_to(target) and w.start <= t < w.end
    ]
    return hits[0] if hits else None


class TestQueriesMatchBruteForce:
    """Every point query equals a full scan of the normalized windows."""

    @given(
        ws=_DENSE_WINDOWS,
        kind=st.sampled_from(list(FaultKind)),
        target=_TARGETS,
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_point_queries(self, ws, kind, target, data):
        schedule = FaultSchedule(ws)
        edges = [x for w in schedule.windows for x in (w.start, w.end)]
        times = data.draw(st.lists(
            st.floats(min_value=-1.0, max_value=140.0)
            | (st.sampled_from(edges) if edges else st.nothing()),
            min_size=1, max_size=8,
        ))
        for t in times:
            expected = _brute_active(schedule, kind, t, target)
            assert schedule.active_window(kind, t, target) is expected
            assert schedule.is_active(kind, t, target) is (expected is not None)
            assert schedule.magnitude_at(kind, t, target, default=-1.0) == (
                expected.magnitude if expected is not None else -1.0
            )
            clear = t
            window = expected
            while window is not None:
                clear = window.end
                window = _brute_active(schedule, kind, clear, target)
            assert schedule.clear_time(kind, t, target) == clear


class TestBackoffProperties:
    @given(
        base=st.floats(min_value=0.0, max_value=60.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        attempts=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=120)
    def test_delay_is_monotone_without_jitter(self, base, multiplier, attempts):
        policy = RetryPolicy(
            max_attempts=attempts, base_delay_s=base, multiplier=multiplier
        )
        delays = [policy.delay_before_attempt(k) for k in range(attempts)]
        assert delays[0] == 0.0
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @given(
        base=st.floats(min_value=0.01, max_value=60.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        attempt=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120)
    def test_jittered_delay_stays_in_envelope(
        self, base, multiplier, jitter, attempt, seed
    ):
        policy = RetryPolicy(
            max_attempts=attempt + 1,
            base_delay_s=base,
            multiplier=multiplier,
            jitter=jitter,
        )
        nominal = base * multiplier ** (attempt - 1)
        delay = policy.delay_before_attempt(attempt, RngStream(seed))
        assert nominal * (1.0 - jitter) <= delay <= nominal * (1.0 + jitter)
        # And jitter never breaks determinism: same stream, same delay.
        assert delay == policy.delay_before_attempt(attempt, RngStream(seed))


class TestWastedCostAccounting:
    @given(
        failure_probability=st.floats(min_value=0.05, max_value=0.8),
        seed=st.integers(min_value=0, max_value=2**16),
        n_calls=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_wasted_usd_reconciles_with_the_platform_ledger(
        self, failure_probability, seed, n_calls
    ):
        """sum(outcome.total_cost) + sum(exhausted.wasted_usd) == the bill.

        Every failed attempt bills the platform; retry accounting must
        attribute exactly that amount to ``wasted_usd`` — no double
        counting, no leakage.
        """
        sim = Simulator()
        platform = ServerlessPlatform(
            sim,
            PlatformConfig(
                cold_start_base_s=0.1,
                cold_start_per_package_mb_s=0.0,
                failure_probability=failure_probability,
            ),
            rng=RngStream(seed),
        )
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        accounted = []

        def driver(sim):
            for _ in range(n_calls):
                try:
                    outcome = yield invoke_with_retries(
                        platform,
                        InvocationRequest("f", 2.4),
                        policy=RetryPolicy(max_attempts=3, base_delay_s=0.5),
                    )
                except RetriesExhaustedError as error:
                    accounted.append(error.wasted_usd)
                    assert error.attempts == 3
                else:
                    accounted.append(outcome.total_cost)
                    assert outcome.wasted_usd >= 0.0

        sim.run(until=sim.spawn(driver(sim)))
        assert math.isclose(
            sum(accounted), platform.total_cost, rel_tol=1e-12, abs_tol=1e-15
        )
