"""Tests for the fault-injection subsystem and graceful degradation.

Covers the three layers end to end: schedules (windows, normalization,
chaos generation), realisation (faulted bandwidth, zone outages,
reclamation, stragglers, brownouts), and the degradation responses
(outage-aware backoff, hedging, fallback-to-local in the controller).
"""

import math

import pytest

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.faults import (
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultWindow,
    FaultedBandwidth,
    PlatformFaultModel,
    inject_faults,
)
from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    PlatformOutageError,
    RetryPolicy,
    SandboxReclaimedError,
    ServerlessPlatform,
    invoke_hedged,
    invoke_with_retries,
)
from repro.sim import Simulator
from repro.sim.rng import RngStream
from repro.traces import ConstantBandwidth, StepBandwidth


@pytest.fixture
def sim():
    return Simulator()


def make_platform(sim, **config):
    defaults = dict(
        keep_alive_s=60.0, cold_start_base_s=0.5, cold_start_per_package_mb_s=0.0
    )
    defaults.update(config)
    platform = ServerlessPlatform(sim, PlatformConfig(**defaults))
    platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
    return platform


def install_faults(platform, windows, rng=None):
    platform.faults = PlatformFaultModel(
        FaultSchedule(windows), rng=rng, zone=platform.name
    )
    return platform.faults


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.LINK_OUTAGE, 5.0, 5.0)  # empty
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.LINK_OUTAGE, 5.0, 4.0)  # inverted
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.LINK_DEGRADED, 0, 1, magnitude=1.0)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.SANDBOX_RECLAIM, 0, 1, magnitude=0.0)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.STRAGGLER, 0, 1, magnitude=0.5)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.BATTERY_BROWNOUT, 0, 1, magnitude=1.5)

    def test_string_kind_is_coerced(self):
        window = FaultWindow("link_outage", 0.0, 1.0)
        assert window.kind is FaultKind.LINK_OUTAGE

    def test_half_open_semantics(self):
        window = FaultWindow(FaultKind.ZONE_OUTAGE, 10.0, 20.0)
        assert window.contains(10.0)
        assert window.contains(19.999)
        assert not window.contains(20.0)
        assert window.overlaps(19.0, 25.0)
        assert not window.overlaps(20.0, 25.0)

    def test_applies_to(self):
        scoped = FaultWindow(FaultKind.LINK_OUTAGE, 0, 1, target="uplink")
        assert scoped.applies_to("uplink")
        assert scoped.applies_to(None)  # wildcard query sees everything
        assert not scoped.applies_to("downlink")
        unscoped = FaultWindow(FaultKind.LINK_OUTAGE, 0, 1)
        assert unscoped.applies_to("uplink")


class TestFaultSchedule:
    def test_overlapping_windows_merge_with_max_magnitude(self):
        schedule = FaultSchedule(
            [
                FaultWindow(FaultKind.STRAGGLER, 0.0, 10.0, magnitude=2.0),
                FaultWindow(FaultKind.STRAGGLER, 5.0, 15.0, magnitude=3.0),
                FaultWindow(FaultKind.STRAGGLER, 15.0, 20.0, magnitude=1.5),
            ]
        )
        assert len(schedule) == 1  # touching windows merge too
        (window,) = schedule.windows
        assert (window.start, window.end) == (0.0, 20.0)
        assert window.magnitude == 3.0

    def test_distinct_groups_do_not_merge(self):
        schedule = FaultSchedule(
            [
                FaultWindow(FaultKind.LINK_OUTAGE, 0.0, 10.0, target="uplink"),
                FaultWindow(FaultKind.LINK_OUTAGE, 5.0, 15.0, target="downlink"),
                FaultWindow(FaultKind.ZONE_OUTAGE, 2.0, 8.0),
            ]
        )
        assert len(schedule) == 3

    def test_clear_time_chains_back_to_back_windows(self):
        schedule = FaultSchedule(
            [
                FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 10.0, target="a"),
                FaultWindow(FaultKind.ZONE_OUTAGE, 10.0, 20.0),  # global
            ]
        )
        assert schedule.clear_time(FaultKind.ZONE_OUTAGE, 5.0, "a") == 20.0
        assert schedule.clear_time(FaultKind.ZONE_OUTAGE, 25.0, "a") == 25.0

    def test_next_boundary_filters_by_kind_and_target(self):
        schedule = FaultSchedule(
            [
                FaultWindow(FaultKind.LINK_OUTAGE, 10.0, 20.0, target="uplink"),
                FaultWindow(FaultKind.ZONE_OUTAGE, 2.0, 4.0),
            ]
        )
        assert schedule.next_boundary_after(0.0) == 2.0
        assert (
            schedule.next_boundary_after(
                0.0, kinds=(FaultKind.LINK_OUTAGE,), target="uplink"
            )
            == 10.0
        )
        assert schedule.next_boundary_after(
            0.0, kinds=(FaultKind.LINK_OUTAGE,), target="downlink"
        ) == math.inf

    def test_magnitude_at_and_is_active(self):
        schedule = FaultSchedule(
            [FaultWindow(FaultKind.LINK_DEGRADED, 5.0, 10.0, magnitude=0.25)]
        )
        assert schedule.magnitude_at(FaultKind.LINK_DEGRADED, 7.0) == 0.25
        assert schedule.magnitude_at(FaultKind.LINK_DEGRADED, 12.0) == 1.0
        assert schedule.is_active(FaultKind.LINK_DEGRADED, 5.0)
        assert not schedule.is_active(FaultKind.LINK_DEGRADED, 10.0)

    def test_merged_with_renormalizes(self):
        a = FaultSchedule([FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 10.0)])
        b = FaultSchedule([FaultWindow(FaultKind.ZONE_OUTAGE, 8.0, 20.0)])
        merged = a.merged_with(b)
        assert len(merged) == 1
        assert merged.windows[0].end == 20.0

    def test_chaos_is_reproducible_and_scales_with_intensity(self):
        first = FaultSchedule.chaos(0.8, 3600.0, RngStream(11))
        second = FaultSchedule.chaos(0.8, 3600.0, RngStream(11))
        assert first.windows == second.windows
        assert len(FaultSchedule.chaos(0.0, 3600.0, RngStream(11))) == 0
        assert all(
            0.0 <= w.start < w.end <= 3600.0 + 1.0 for w in first.windows
        )

    def test_chaos_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FaultSchedule.chaos(1.5, 100.0, RngStream(1))
        with pytest.raises(ValueError):
            FaultSchedule.chaos(0.5, 0.0, RngStream(1))


class TestFaultedBandwidth:
    def test_outage_zeroes_and_degradation_scales(self):
        schedule = FaultSchedule(
            [
                FaultWindow(FaultKind.LINK_OUTAGE, 10.0, 20.0, target="uplink"),
                FaultWindow(
                    FaultKind.LINK_DEGRADED, 30.0, 40.0, target="uplink", magnitude=0.5
                ),
            ]
        )
        trace = FaultedBandwidth(ConstantBandwidth(8e6), schedule, target="uplink")
        assert trace.rate_at(5.0) == 8e6
        assert trace.rate_at(15.0) == 0.0
        assert trace.rate_at(35.0) == 4e6
        assert trace.rate_at(45.0) == 8e6

    def test_next_change_merges_base_and_fault_boundaries(self):
        schedule = FaultSchedule(
            [FaultWindow(FaultKind.LINK_OUTAGE, 10.0, 20.0, target="uplink")]
        )
        base = StepBandwidth([(0.0, 8e6), (15.0, 2e6)])
        trace = FaultedBandwidth(base, schedule, target="uplink")
        assert trace.next_change_after(0.0) == 10.0  # fault starts first
        assert trace.next_change_after(10.0) == 15.0  # then the base step
        assert trace.next_change_after(15.0) == 20.0  # then the fault ends

    def test_transfer_time_integrates_across_an_outage(self):
        # Rate 8e6/s; outage [1, 3): 2 units-seconds of work means 1s of
        # active transfer before the outage, a 2s stall, 1s after — 4s.
        schedule = FaultSchedule([FaultWindow(FaultKind.LINK_OUTAGE, 1.0, 3.0)])
        trace = FaultedBandwidth(ConstantBandwidth(8e6), schedule)
        assert trace.transfer_time(0.0, 16e6) == pytest.approx(4.0)

    def test_scoped_windows_ignore_other_targets(self):
        schedule = FaultSchedule(
            [FaultWindow(FaultKind.LINK_OUTAGE, 0.0, 10.0, target="downlink")]
        )
        trace = FaultedBandwidth(ConstantBandwidth(1e6), schedule, target="uplink")
        assert trace.rate_at(5.0) == 1e6


class TestPlatformFaults:
    def test_zone_outage_rejects_submissions(self, sim):
        platform = make_platform(sim)
        install_faults(platform, [FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 50.0)])
        errors = []

        def driver(sim):
            try:
                yield from platform.invoke(InvocationRequest("f", 1.0))
            except PlatformOutageError as error:
                errors.append(error)

        sim.run(until=sim.spawn(driver(sim)))
        assert len(errors) == 1
        assert errors[0].billed_usd == 0.0
        snap = platform.metrics.snapshot()
        assert snap["faas.outage_rejections"] == 1.0
        assert platform.outage_clear_time(at=10.0) == 50.0
        assert platform.outage_clear_time(at=60.0) is None

    def test_straggler_stretches_execution(self, sim):
        platform = make_platform(sim)
        install_faults(
            platform,
            [FaultWindow(FaultKind.STRAGGLER, 0.0, 100.0, magnitude=4.0)],
        )
        records = []

        def driver(sim):
            records.append((yield from platform.invoke(InvocationRequest("f", 2.4))))

        sim.run(until=sim.spawn(driver(sim)))
        (record,) = records
        base = platform.spec("f").duration_for(2.4)
        assert record.finished_at - record.started_at == pytest.approx(4.0 * base)
        assert platform.metrics.snapshot()["faas.straggler_slowdowns"] == 1.0

    def test_reclamation_kills_mid_run_and_destroys_sandbox(self, sim):
        platform = make_platform(sim)
        install_faults(
            platform,
            [FaultWindow(FaultKind.SANDBOX_RECLAIM, 0.0, 1e4, magnitude=1.0)],
            rng=RngStream(3),
        )
        errors = []

        def driver(sim):
            try:
                yield from platform.invoke(InvocationRequest("f", 2.4))
            except SandboxReclaimedError as error:
                errors.append(error)

        sim.run(until=sim.spawn(driver(sim)))
        (error,) = errors
        assert 0.0 < error.ran_for_s < platform.spec("f").duration_for(2.4)
        assert error.billed_usd > 0.0
        assert platform.warm_pool_size("f") == 0  # destroyed, not pooled
        snap = platform.metrics.snapshot()
        assert snap["faas.reclamations"] == 1.0
        assert snap["faas.failures"] == 1.0

    def test_reclamation_respawns_for_queued_requests(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("g", memory_mb=1769, package_mb=0, concurrency_limit=1))
        install_faults(
            platform,
            [FaultWindow(FaultKind.SANDBOX_RECLAIM, 0.0, 0.9, magnitude=1.0)],
            rng=RngStream(3),
        )
        outcomes = {"ok": 0, "reclaimed": 0}

        def caller(sim):
            try:
                yield from platform.invoke(InvocationRequest("g", 2.4))
            except SandboxReclaimedError:
                outcomes["reclaimed"] += 1
            else:
                outcomes["ok"] += 1

        first = sim.spawn(caller(sim))
        second = sim.spawn(caller(sim))
        sim.run(until=sim.all_of([first, second]))
        # The first caller's sandbox is reclaimed; the queued second caller
        # must still complete on the cold-started replacement.
        assert outcomes == {"ok": 1, "reclaimed": 1}

    def test_reclaim_windows_require_rng(self):
        with pytest.raises(ValueError, match="RngStream"):
            PlatformFaultModel(
                FaultSchedule(
                    [FaultWindow(FaultKind.SANDBOX_RECLAIM, 0, 1, magnitude=0.5)]
                )
            )

    def test_reclaim_time_is_within_overlap(self):
        model = PlatformFaultModel(
            FaultSchedule(
                [FaultWindow(FaultKind.SANDBOX_RECLAIM, 10.0, 20.0, magnitude=1.0)]
            ),
            rng=RngStream(5),
        )
        for start, duration in [(5.0, 10.0), (12.0, 3.0), (18.0, 10.0)]:
            t = model.reclaim_time(start, duration)
            assert t is not None
            assert max(start, 10.0) <= t <= min(start + duration, 20.0)
        assert model.reclaim_time(25.0, 5.0) is None  # no overlap
        assert model.reclaim_time(12.0, 0.0) is None  # empty execution


class TestOutageAwareRetry:
    def test_attempts_wait_out_the_dead_zone(self, sim):
        platform = make_platform(sim)
        install_faults(platform, [FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 40.0)])
        results = []

        def driver(sim):
            results.append(
                (
                    yield invoke_with_retries(
                        platform,
                        InvocationRequest("f", 0.24),
                        policy=RetryPolicy(max_attempts=3, base_delay_s=1.0),
                        outage_aware=True,
                    )
                )
            )

        sim.run(until=sim.spawn(driver(sim)))
        (outcome,) = results
        assert outcome.attempts == 1  # the single delayed attempt succeeded
        assert outcome.invocation.started_at >= 40.0
        assert platform.metrics.snapshot()["faas.retry.outage_waits"] == 1.0

    def test_naive_retries_burn_into_the_outage(self, sim):
        platform = make_platform(sim)
        install_faults(platform, [FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 40.0)])
        failures = []

        def driver(sim):
            try:
                yield invoke_with_retries(
                    platform,
                    InvocationRequest("f", 0.24),
                    policy=RetryPolicy(max_attempts=3, base_delay_s=1.0),
                    outage_aware=False,
                )
            except Exception as error:  # noqa: BLE001 - asserting on type below
                failures.append(error)

        sim.run(until=sim.spawn(driver(sim)))
        assert len(failures) == 1
        assert platform.metrics.snapshot()["faas.outage_rejections"] == 3.0


class TestHedgedInvocation:
    def test_no_hedge_when_primary_is_fast(self, sim):
        platform = make_platform(sim)
        results = []

        def driver(sim):
            results.append(
                (
                    yield invoke_hedged(
                        platform,
                        InvocationRequest("f", 0.24),
                        hedge_after_s=1e4,
                    )
                )
            )

        sim.run(until=sim.spawn(driver(sim)))
        assert results[0].hedged is False
        assert "faas.hedges" not in platform.metrics.snapshot()

    def test_hedge_launches_and_wins_against_straggler(self, sim):
        platform = make_platform(sim)
        # Stragglers only in the first second: the primary starts inside
        # the window and is stretched 100x; the hedge starts after it
        # closes and runs at full speed, winning the race.
        install_faults(
            platform,
            [FaultWindow(FaultKind.STRAGGLER, 0.0, 1.0, magnitude=100.0)],
        )
        results = []

        def driver(sim):
            results.append(
                (
                    yield invoke_hedged(
                        platform,
                        InvocationRequest("f", 2.4),
                        hedge_after_s=5.0,
                    )
                )
            )

        sim.run(until=sim.spawn(driver(sim)))
        (outcome,) = results
        assert outcome.hedged is True
        base = platform.spec("f").duration_for(2.4)
        hedged_finish = outcome.invocation.finished_at
        assert hedged_finish < 0.5 + 100.0 * base  # beat the straggler
        assert platform.metrics.snapshot()["faas.hedges"] == 1.0

    def test_none_delay_degenerates_to_plain_retries(self, sim):
        platform = make_platform(sim)
        results = []

        def driver(sim):
            results.append(
                (
                    yield invoke_hedged(
                        platform, InvocationRequest("f", 0.24), hedge_after_s=None
                    )
                )
            )

        sim.run(until=sim.spawn(driver(sim)))
        assert results[0].hedged is False
        assert results[0].attempts == 1

    def test_invalid_hedge_delay(self, sim):
        platform = make_platform(sim)
        with pytest.raises(ValueError):
            invoke_hedged(platform, InvocationRequest("f", 1.0), hedge_after_s=0.0)


class _ScriptedPlatform:
    """The minimal platform surface ``invoke_hedged`` touches, with
    exact per-call durations and outcomes — the only way to pin both
    lanes to the *same* finish instant and exercise the both-finish
    race deterministically."""

    def __init__(self, sim, script):
        from repro.metrics import MetricRegistry

        self.sim = sim
        self.name = "stub"
        self.metrics = MetricRegistry()
        self._script = list(script)  # (duration_s, succeeds) per call
        self._calls = 0

    def invoke(self, request):
        """The invocation as a generator, like the real platform's."""
        from repro.serverless import Invocation, InvocationFailedError

        duration, ok = self._script[self._calls]
        self._calls += 1
        submitted = self.sim.now
        yield self.sim.timeout(duration)
        if not ok:
            raise InvocationFailedError(
                request.function, ran_for_s=duration, billed_usd=0.001
            )
        return Invocation(
            request=request,
            submitted_at=submitted,
            started_at=submitted,
            finished_at=self.sim.now,
            cold_start=False,
            memory_mb=1769.0,
            billed_duration_s=duration,
            cost=0.002,
        )

    def outage_clear_time(self, at):
        return None


class TestHedgeBothFinishRace:
    """Primary and hedge completing in the same event batch must
    attribute exactly one winner — never two bills, never a successful
    loser counted as waste."""

    def _race(self, sim, script, max_attempts=1):
        results = []

        def driver(sim):
            results.append(
                (
                    yield invoke_hedged(
                        _ScriptedPlatform(sim, script),
                        InvocationRequest("f", 1.0),
                        policy=RetryPolicy(
                            max_attempts=max_attempts, base_delay_s=1.0
                        ),
                        hedge_after_s=5.0,
                    )
                )
            )

        sim.run(until=sim.spawn(driver(sim)))
        (outcome,) = results
        return outcome

    def test_both_succeed_same_batch_primary_wins(self, sim):
        # Primary runs 0→10; hedge starts at 5, runs 5→10: both lanes
        # trigger in the same event batch at t=10.
        outcome = self._race(sim, [(10.0, True), (5.0, True)])
        assert sim.now == 10.0
        assert outcome.hedged is True
        # Lane order breaks the tie: the primary (submitted at t=0) is
        # the one winner, and its bill is counted exactly once.
        assert outcome.invocation.submitted_at == 0.0
        assert outcome.invocation.cost == 0.002
        assert outcome.total_cost == 0.002
        # The abandoned-but-successful hedge is not "waste": its bill
        # lands on the platform ledger, not on this outcome.
        assert outcome.wasted_usd == 0.0

    def test_primary_fails_in_same_batch_hedge_wins(self, sim):
        # Primary fails at t=10; hedge (started at 5) succeeds at t=10
        # in the same batch.  The hedge wins and the failed lane's bill
        # is attributed as waste.
        outcome = self._race(sim, [(10.0, False), (5.0, True)])
        assert sim.now == 10.0
        assert outcome.hedged is True
        assert outcome.invocation.submitted_at == 5.0
        assert outcome.wasted_usd == pytest.approx(0.001)
        assert outcome.total_cost == pytest.approx(0.003)


class TestHedgeAllLanesFailAccounting:
    """When every lane exhausts its retries, the combined error must
    carry *both* lanes' attempts and waste exactly once — previously
    only the last-failing lane's ledger survived, silently dropping the
    other lane's billed failures."""

    def _race_to_exhaustion(self, sim, script, max_attempts=1):
        from repro.serverless import RetriesExhaustedError

        errors = []

        def driver(sim):
            try:
                yield invoke_hedged(
                    _ScriptedPlatform(sim, script),
                    InvocationRequest("f", 1.0),
                    policy=RetryPolicy(
                        max_attempts=max_attempts, base_delay_s=1.0
                    ),
                    hedge_after_s=5.0,
                )
            except RetriesExhaustedError as error:
                errors.append(error)

        sim.run(until=sim.spawn(driver(sim)))
        (error,) = errors
        return error

    def test_same_batch_failures_sum_both_lanes(self, sim):
        # Primary fails at t=10; hedge (started at 5) fails at t=10 in
        # the same event batch.  Each lane billed one 0.001 failure.
        error = self._race_to_exhaustion(sim, [(10.0, False), (5.0, False)])
        assert sim.now == 10.0
        assert error.attempts == 2
        assert error.wasted_usd == pytest.approx(0.002)

    def test_staggered_failures_sum_both_lanes(self, sim):
        # Hedge fails first (t=7), primary later (t=10): the combined
        # error surfaces when the last lane dies and still carries the
        # earlier lane's waste.
        error = self._race_to_exhaustion(sim, [(10.0, False), (2.0, False)])
        assert sim.now == 10.0
        assert error.attempts == 2
        assert error.wasted_usd == pytest.approx(0.002)

    def test_retried_lanes_sum_every_attempt(self, sim):
        # Two attempts per lane, all failing: 4 attempts, 4 bills.
        script = [(10.0, False), (5.0, False), (2.0, False), (2.0, False)]
        error = self._race_to_exhaustion(sim, script, max_attempts=2)
        assert error.attempts == 4
        assert error.wasted_usd == pytest.approx(0.004)


class TestDegradationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(hedge_after_s=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(fallback_after_s=-1.0)
        with pytest.raises(ValueError):
            DegradationPolicy(fallback_slack_fraction=1.5)

    def test_fallback_budget(self):
        policy = DegradationPolicy(fallback_slack_fraction=0.5)
        assert policy.fallback_budget(now=100.0, deadline=300.0) == 100.0
        capped = DegradationPolicy(fallback_after_s=30.0, fallback_slack_fraction=0.5)
        assert capped.fallback_budget(now=100.0, deadline=300.0) == 30.0
        disabled = DegradationPolicy(fallback_local=False)
        assert disabled.fallback_budget(now=0.0, deadline=1e9) is None


class TestBrownout:
    def test_brownout_drains_a_fraction(self):
        env = Environment.build_custom(seed=1)
        before = env.ue.battery_level_j
        env.ue.brownout(0.25)
        assert env.ue.battery_level_j == pytest.approx(0.75 * before)
        snap = env.metrics.snapshot()
        assert snap["ue.brownouts"] == 1.0
        assert snap["ue.brownout_j"] == pytest.approx(0.25 * before)

    def test_full_brownout_never_raises(self):
        env = Environment.build_custom(seed=1)
        env.ue.brownout(1.0)
        assert env.ue.battery_level_j == 0.0
        env.ue.brownout(1.0)  # already empty: still a no-op, not an error

    def test_fraction_validated(self):
        env = Environment.build_custom(seed=1)
        with pytest.raises(ValueError):
            env.ue.brownout(1.5)


class TestFaultInjector:
    def schedule(self):
        return FaultSchedule(
            [
                FaultWindow(FaultKind.LINK_OUTAGE, 10.0, 20.0, target="uplink"),
                FaultWindow(FaultKind.ZONE_OUTAGE, 5.0, 15.0),
                FaultWindow(FaultKind.BATTERY_BROWNOUT, 1.0, 2.0, magnitude=0.1),
            ]
        )

    def test_attach_is_one_shot(self):
        env = Environment.build_custom(seed=1)
        injector = FaultInjector(self.schedule())
        injector.attach(env)
        with pytest.raises(RuntimeError):
            injector.attach(env)

    def test_environment_rejects_a_second_schedule(self):
        # A second inject_faults would double-wrap link traces and
        # re-schedule brownout drains — refuse rather than compose.
        env = Environment.build_custom(seed=1)
        inject_faults(env, self.schedule())
        with pytest.raises(RuntimeError, match="already has a fault schedule"):
            inject_faults(env, self.schedule())

    def test_attach_wires_every_layer(self):
        env = Environment.build_custom(seed=1)
        inject_faults(env, self.schedule())
        assert isinstance(env.uplink.links[0].trace, FaultedBandwidth)
        assert env.platform.faults is not None
        snap = env.metrics.snapshot()
        assert snap["faults.injected"] == 3.0
        assert snap["faults.injected.zone_outage"] == 1.0
        env.sim.run(until=5.0)
        assert env.metrics.snapshot()["ue.brownouts"] == 1.0

    def test_inject_faults_derives_rng_for_reclaim(self):
        env = Environment.build_custom(seed=1)
        inject_faults(
            env,
            FaultSchedule(
                [FaultWindow(FaultKind.SANDBOX_RECLAIM, 0, 10, magnitude=0.5)]
            ),
        )
        assert env.platform.faults.rng is not None


class TestControllerFallback:
    def test_controller_falls_back_to_local_when_cloud_stays_dark(self):
        env = Environment.build_custom(seed=7)
        # The zone is dark for the entire horizon: every cloud episode
        # must eventually give up and run locally.
        inject_faults(
            env,
            FaultSchedule([FaultWindow(FaultKind.ZONE_OUTAGE, 0.0, 1e6)]),
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
            degradation=DegradationPolicy(
                outage_aware_backoff=False,  # let attempts fail fast
                fallback_local=True,
                fallback_after_s=60.0,
            ),
        )
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        report = controller.run_workload(
            [Job(controller.app, input_mb=2.0, deadline=3600.0)]
        )
        assert not report.failures
        assert report.results[0].met_deadline
        snap = env.metrics.snapshot()
        assert snap["photo_backup.fallbacks"] >= 1.0

    def test_no_degradation_policy_is_legacy_path(self):
        # degradation=None must not consult fault hooks at all — the
        # controller behaves exactly as before the subsystem existed.
        env = Environment.build_custom(seed=7)
        controller = OffloadController(env, photo_backup_app())
        assert controller.degradation is None
        controller.profile_offline()
        controller.plan(input_mb=1.0)
        report = controller.run_workload(
            [Job(controller.app, input_mb=1.0, deadline=3600.0)]
        )
        assert not report.failures
