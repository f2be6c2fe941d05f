"""Tests for the serverless platform simulator (cold/warm/queue/billing)."""

import pytest

from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    ServerlessPlatform,
    ThrottledError,
)
from repro.sim import Simulator


def make_platform(sim, **config_kwargs):
    defaults = dict(keep_alive_s=60.0, cold_start_base_s=0.5,
                    cold_start_per_package_mb_s=0.0)
    defaults.update(config_kwargs)
    return ServerlessPlatform(sim, PlatformConfig(**defaults))


def run_invocations(sim, platform, requests, gap_s=0.0):
    """Submit requests (optionally spaced) and return completed records."""
    records = []

    def driver(sim):
        for i, request in enumerate(requests):
            if gap_s and i:
                yield sim.timeout(gap_s)
            record = yield from platform.invoke(request)
            records.append(record)

    sim.run(until=sim.spawn(driver(sim)))
    return records


@pytest.fixture
def sim():
    return Simulator()


class TestDeployment:
    def test_deploy_and_lookup(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1024))
        assert platform.is_deployed("f")
        assert platform.spec("f").memory_mb == 1024
        assert platform.deployed_functions() == ["f"]

    def test_invoke_unknown_function_rejected(self, sim):
        platform = make_platform(sim)
        with pytest.raises(KeyError):
            next(platform.invoke(InvocationRequest("ghost", 1.0)))

    def test_redeploy_discards_warm_pool(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        run_invocations(sim, platform, [InvocationRequest("f", 1.0)])
        assert platform.warm_pool_size("f") == 1
        platform.deploy(FunctionSpec("f", memory_mb=2048, package_mb=0))
        assert platform.warm_pool_size("f") == 0

    def test_undeploy(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f"))
        platform.undeploy("f")
        assert not platform.is_deployed("f")

    def test_undeploy_with_warm_pool_is_fine(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", package_mb=0))
        run_invocations(sim, platform, [InvocationRequest("f", 1.0)])
        platform.undeploy("f")  # idle instance, no in-flight work


class TestColdWarmStarts:
    def test_first_invocation_is_cold(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        records = run_invocations(sim, platform, [InvocationRequest("f", 2.4)])
        record = records[0]
        assert record.cold_start
        assert record.started_at == pytest.approx(0.5)  # cold_start_base_s
        assert record.execution_time == pytest.approx(1.0)

    def test_second_invocation_is_warm(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        records = run_invocations(
            sim, platform,
            [InvocationRequest("f", 2.4), InvocationRequest("f", 2.4)],
        )
        assert records[0].cold_start
        assert not records[1].cold_start
        assert records[1].queue_delay == pytest.approx(0.0)

    def test_keep_alive_expiry_causes_cold_start(self, sim):
        platform = make_platform(sim, keep_alive_s=10.0)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        records = run_invocations(
            sim, platform,
            [InvocationRequest("f", 0.24), InvocationRequest("f", 0.24)],
            gap_s=30.0,
        )
        assert records[0].cold_start
        assert records[1].cold_start

    def test_package_size_slows_cold_start(self, sim):
        platform = make_platform(sim, cold_start_per_package_mb_s=0.01)
        platform.deploy(FunctionSpec("big", memory_mb=1769, package_mb=200))
        records = run_invocations(sim, platform, [InvocationRequest("big", 0.0)])
        assert records[0].queue_delay == pytest.approx(0.5 + 2.0)

    def test_cold_start_fraction(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        run_invocations(
            sim, platform, [InvocationRequest("f", 0.24) for _ in range(4)]
        )
        assert platform.cold_start_fraction("f") == pytest.approx(0.25)

    def test_cold_start_fraction_empty(self, sim):
        platform = make_platform(sim)
        assert platform.cold_start_fraction() == 0.0


class TestConcurrencyAndQueueing:
    def test_concurrent_up_to_limit(self, sim):
        platform = make_platform(sim, default_concurrency=3)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        events = [
            sim.spawn(platform.invoke(InvocationRequest("f", 2.4)))
            for _ in range(3)
        ]

        def join(sim):
            got = yield sim.all_of(events)
            return sorted(r.finished_at for r in got.values())

        finishes = sim.run(until=sim.spawn(join(sim)))
        assert finishes == pytest.approx([1.5, 1.5, 1.5])

    def test_excess_queues_fifo(self, sim):
        platform = make_platform(sim, default_concurrency=1)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        events = [
            sim.spawn(platform.invoke(InvocationRequest("f", 2.4, tag=f"r{i}")))
            for i in range(3)
        ]

        def join(sim):
            got = yield sim.all_of(events)
            return sorted((r.finished_at, r.request.tag) for r in got.values())

        order = sim.run(until=sim.spawn(join(sim)))
        assert [tag for _t, tag in order] == ["r0", "r1", "r2"]
        # One cold start, then warm handoffs with no extra cold delay.
        assert order[0][0] == pytest.approx(1.5)
        assert order[1][0] == pytest.approx(2.5)
        assert order[2][0] == pytest.approx(3.5)

    def test_queued_handoff_is_warm(self, sim):
        platform = make_platform(sim, default_concurrency=1)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        events = [
            sim.spawn(platform.invoke(InvocationRequest("f", 2.4)))
            for _ in range(2)
        ]

        def join(sim):
            got = yield sim.all_of(events)
            return [r.cold_start for r in got.values()]

        colds = sim.run(until=sim.spawn(join(sim)))
        assert sorted(colds) == [False, True]

    def test_per_function_concurrency_override(self, sim):
        platform = make_platform(sim, default_concurrency=100)
        platform.deploy(
            FunctionSpec("f", memory_mb=1769, package_mb=0, concurrency_limit=1)
        )
        events = [
            sim.spawn(platform.invoke(InvocationRequest("f", 2.4)))
            for _ in range(2)
        ]

        def join(sim):
            got = yield sim.all_of(events)
            return sorted(r.finished_at for r in got.values())

        finishes = sim.run(until=sim.spawn(join(sim)))
        assert finishes[1] == pytest.approx(finishes[0] + 1.0)

    def test_throttling(self, sim):
        platform = make_platform(sim, default_concurrency=1, max_queue_per_function=1)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        outcomes = []

        def driver(sim):
            events = [
                sim.spawn(platform.invoke(InvocationRequest("f", 2.4)))
                for _ in range(3)
            ]
            for event in events:
                try:
                    yield event
                    outcomes.append("ok")
                except ThrottledError:
                    outcomes.append("throttled")

        sim.run(until=sim.spawn(driver(sim)))
        assert outcomes.count("throttled") == 1
        assert outcomes.count("ok") == 2


class TestBillingIntegration:
    def test_invocation_cost_accrues(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1024, package_mb=0))
        records = run_invocations(sim, platform, [InvocationRequest("f", 2.4)])
        assert platform.total_cost == pytest.approx(records[0].cost)
        assert platform.function_cost("f").total == pytest.approx(records[0].cost)

    def test_cost_matches_billing_model(self, sim):
        platform = make_platform(sim)
        spec = FunctionSpec("f", memory_mb=2048, package_mb=0)
        platform.deploy(spec)
        records = run_invocations(sim, platform, [InvocationRequest("f", 4.8)])
        expected = platform.config.billing.invocation_cost(
            records[0].execution_time, 2048
        ).total
        assert records[0].cost == pytest.approx(expected)

    def test_estimates_match_spec(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        assert platform.estimate_duration("f", 2.4) == pytest.approx(1.0)
        assert platform.estimate_cost("f", 2.4) > 0

    def test_metrics_recorded(self, sim):
        platform = make_platform(sim)
        platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))
        run_invocations(sim, platform, [InvocationRequest("f", 2.4)])
        snap = platform.metrics.snapshot()
        assert snap["faas.invocations"] == 1
        assert snap["faas.cold_starts"] == 1
