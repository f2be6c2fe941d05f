"""Tests for the delay-tolerant schedulers (contribution C5)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Job, photo_backup_app
from repro.core.scheduler import (
    CostWindowScheduler,
    DeadlineBatcher,
    EagerScheduler,
    ScheduleDecision,
)


@pytest.fixture
def app():
    return photo_backup_app()


def job_with(app, released_at=0.0, slack=math.inf):
    deadline = math.inf if math.isinf(slack) else released_at + slack
    return Job(app, released_at=released_at, deadline=deadline)


class TestEagerScheduler:
    def test_dispatches_now(self, app):
        decision = EagerScheduler().decide(job_with(app), now=12.0,
                                           estimate_completion_s=10.0)
        assert decision.dispatch_at == 12.0


class TestLatestSafeStart:
    def test_infinite_deadline_never_binds(self, app):
        scheduler = EagerScheduler()
        assert scheduler.latest_safe_start(job_with(app), 100.0) == math.inf

    def test_safety_factor_applied(self, app):
        scheduler = DeadlineBatcher(window_s=100.0, safety_factor=2.0)
        job = Job(app, released_at=0.0, deadline=100.0)
        assert scheduler.latest_safe_start(job, 10.0) == pytest.approx(80.0)


class TestDeadlineBatcher:
    def test_aligns_to_window_boundary(self, app):
        batcher = DeadlineBatcher(window_s=300.0)
        decision = batcher.decide(job_with(app), now=120.0, estimate_completion_s=10.0)
        assert decision.dispatch_at == 300.0

    def test_release_on_boundary_waits_full_window(self, app):
        batcher = DeadlineBatcher(window_s=300.0)
        decision = batcher.decide(job_with(app), now=300.0, estimate_completion_s=10.0)
        assert decision.dispatch_at == 600.0

    def test_jobs_in_same_window_share_dispatch(self, app):
        batcher = DeadlineBatcher(window_s=300.0)
        first = batcher.decide(job_with(app, released_at=10.0), 10.0, 5.0)
        second = batcher.decide(job_with(app, released_at=250.0), 250.0, 5.0)
        assert first.dispatch_at == second.dispatch_at == 300.0

    def test_deadline_pressure_overrides_window(self, app):
        batcher = DeadlineBatcher(window_s=10_000.0, safety_factor=1.0)
        job = Job(app, released_at=0.0, deadline=100.0)
        decision = batcher.decide(job, now=0.0, estimate_completion_s=20.0)
        assert decision.dispatch_at == pytest.approx(80.0)

    def test_already_past_safe_start_dispatches_now(self, app):
        batcher = DeadlineBatcher(window_s=100.0, safety_factor=1.0)
        job = Job(app, released_at=0.0, deadline=5.0)
        decision = batcher.decide(job, now=4.0, estimate_completion_s=50.0)
        assert decision.dispatch_at == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBatcher(window_s=0.0)
        with pytest.raises(ValueError):
            DeadlineBatcher(window_s=10.0, safety_factor=0.5)

    @given(
        now=st.floats(min_value=0.0, max_value=1e5),
        window=st.floats(min_value=1.0, max_value=1e4),
        slack=st.floats(min_value=1.0, max_value=1e5),
        estimate=st.floats(min_value=0.1, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, now, window, slack, estimate):
        app = photo_backup_app()
        batcher = DeadlineBatcher(window_s=window)
        job = Job(app, released_at=now, deadline=now + slack)
        decision = batcher.decide(job, now, estimate)
        assert decision.dispatch_at >= now
        # Never dispatch beyond one full window after release.
        assert decision.dispatch_at <= now + window + 1e-6
        latest = batcher.latest_safe_start(job, estimate)
        if latest >= now:
            assert decision.dispatch_at <= latest + 1e-9


class TestCostWindowScheduler:
    def test_picks_cheapest_instant(self, app):
        # Price falls to its minimum at t=600 then rises again.
        price = lambda t: abs(t - 600.0)
        scheduler = CostWindowScheduler(price, resolution_s=100.0)
        job = Job(app, released_at=0.0, deadline=2000.0)
        decision = scheduler.decide(job, now=0.0, estimate_completion_s=10.0)
        assert decision.dispatch_at == pytest.approx(600.0)

    def test_respects_latest_safe_start(self, app):
        price = lambda t: -t  # cheaper the later, unboundedly
        scheduler = CostWindowScheduler(price, resolution_s=50.0, safety_factor=1.0)
        job = Job(app, released_at=0.0, deadline=500.0)
        decision = scheduler.decide(job, now=0.0, estimate_completion_s=100.0)
        assert decision.dispatch_at <= 400.0 + 1e-9

    def test_flat_price_dispatches_immediately(self, app):
        scheduler = CostWindowScheduler(lambda t: 1.0, resolution_s=100.0)
        job = Job(app, released_at=0.0, deadline=5000.0)
        decision = scheduler.decide(job, now=0.0, estimate_completion_s=1.0)
        assert decision.dispatch_at == 0.0

    def test_infinite_slack_scans_one_day(self, app):
        cheapest_at = 40_000.0
        price = lambda t: abs(t - cheapest_at)
        scheduler = CostWindowScheduler(price, resolution_s=1000.0)
        decision = scheduler.decide(job_with(app), now=0.0, estimate_completion_s=1.0)
        assert decision.dispatch_at == pytest.approx(cheapest_at)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostWindowScheduler(lambda t: 1.0, resolution_s=0.0)
        with pytest.raises(ValueError):
            CostWindowScheduler(lambda t: 1.0, safety_factor=0.0)
        with pytest.raises(ValueError):
            CostWindowScheduler(lambda t: 1.0, max_samples=1)


class TestBatteryAwareScheduler:
    def make(self, fraction, inner=None, threshold=0.2):
        from repro.core.scheduler import BatteryAwareScheduler

        return BatteryAwareScheduler(
            battery_fraction_fn=lambda: fraction,
            inner=inner,
            threshold=threshold,
        )

    def test_healthy_battery_delegates(self, app):
        scheduler = self.make(fraction=0.9)
        job = Job(app, released_at=5.0, deadline=1000.0)
        decision = scheduler.decide(job, now=5.0, estimate_completion_s=10.0)
        assert decision.dispatch_at == 5.0  # inner eager fires immediately

    def test_low_battery_defers_to_latest_safe_start(self, app):
        scheduler = self.make(fraction=0.05)
        job = Job(app, released_at=0.0, deadline=1000.0)
        decision = scheduler.decide(job, now=0.0, estimate_completion_s=100.0)
        assert decision.dispatch_at == pytest.approx(1000.0 - 1.5 * 100.0)

    def test_low_battery_infinite_deadline_uses_grace(self, app):
        scheduler = self.make(fraction=0.05)
        decision = scheduler.decide(job_with(app), now=10.0,
                                    estimate_completion_s=10.0)
        assert decision.dispatch_at == pytest.approx(10.0 + 4 * 3600.0)

    def test_low_battery_never_past_safe_start(self, app):
        scheduler = self.make(fraction=0.05)
        job = Job(app, released_at=0.0, deadline=20.0)
        decision = scheduler.decide(job, now=15.0, estimate_completion_s=50.0)
        assert decision.dispatch_at == 15.0  # already late: go now

    def test_custom_inner_used_when_healthy(self, app):
        inner = DeadlineBatcher(window_s=100.0)
        scheduler = self.make(fraction=0.9, inner=inner)
        decision = scheduler.decide(job_with(app, released_at=10.0), 10.0, 1.0)
        assert decision.dispatch_at == 100.0  # the batcher's boundary

    def test_validation(self):
        from repro.core.scheduler import BatteryAwareScheduler

        with pytest.raises(ValueError):
            BatteryAwareScheduler(lambda: 1.0, threshold=1.5)
        with pytest.raises(ValueError):
            BatteryAwareScheduler(lambda: 1.0, safety_factor=0.5)

    def test_end_to_end_low_battery_defers(self):
        """Integration: a low-battery UE holds the job until the latest
        safe start (recharge happens in the meantime)."""
        from repro import Environment, Job, OffloadController, photo_backup_app
        from repro.core.scheduler import BatteryAwareScheduler
        from repro.device.ue import DeviceSpec

        env = Environment.build(
            seed=1, device=DeviceSpec(battery_capacity_j=40_000.0)
        )
        # Drain to 10%.
        env.ue._drain(36_000.0)
        scheduler = BatteryAwareScheduler(
            battery_fraction_fn=lambda: env.ue.battery_fraction,
            threshold=0.2,
        )
        controller = OffloadController(env, photo_backup_app(), scheduler=scheduler)
        controller.profile_offline()
        controller.plan(input_mb=2.0)

        def recharge_later(sim):
            yield sim.timeout(600.0)
            env.ue.recharge()

        env.sim.spawn(recharge_later(env.sim))
        job = Job(controller.app, input_mb=2.0, released_at=0.0, deadline=7200.0)
        report = controller.run_workload([job])
        result = report.results[0]
        assert result.started_at > 600.0  # deferred past the recharge
        assert result.met_deadline


class TestScheduleDecision:
    def test_nan_dispatch_rejected(self):
        with pytest.raises(ValueError):
            ScheduleDecision(job_id=1, dispatch_at=math.nan)
