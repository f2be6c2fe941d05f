"""Cross-module property-based tests (hypothesis).

These encode the invariants the whole reproduction leans on; a violation
anywhere in the stack (kernel, models, planners) surfaces here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Job, photo_backup_app, random_tree_app
from repro.core.partitioning import (
    ExhaustivePartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    evaluate_partition,
)
from repro.core.scheduler import (
    CostWindowScheduler,
    DeadlineBatcher,
    EagerScheduler,
)
from repro.network.link import Link, NetworkPath
from repro.sim import Resource, Simulator
from repro.sim.rng import RngStream
from repro.traces import StepBandwidth


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4),
                           min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []

        def watcher(sim, delay):
            yield sim.timeout(delay)
            fired.append(sim.now)

        for delay in delays:
            sim.spawn(watcher(sim, delay))
        sim.run()
        assert len(fired) == len(delays)
        assert fired == sorted(fired)
        assert fired == sorted(delays)

    @given(
        capacity=st.integers(min_value=1, max_value=5),
        durations=st.lists(st.floats(min_value=0.1, max_value=10.0),
                           min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_resource_never_oversubscribed(self, capacity, durations):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        concurrency = {"now": 0, "peak": 0}

        def worker(sim, duration):
            request = resource.request()
            yield request
            concurrency["now"] += 1
            concurrency["peak"] = max(concurrency["peak"], concurrency["now"])
            yield sim.timeout(duration)
            concurrency["now"] -= 1
            resource.release(request)

        for duration in durations:
            sim.spawn(worker(sim, duration))
        sim.run()
        assert concurrency["peak"] <= capacity
        assert concurrency["now"] == 0
        # Total busy time conservation: makespan >= total work / capacity.
        assert sim.now >= sum(durations) / capacity - 1e-9


class TestNetworkProperties:
    @given(
        nbytes=st.floats(min_value=0.0, max_value=1e7),
        rate1=st.floats(min_value=1e3, max_value=1e7),
        rate2=st.floats(min_value=1e3, max_value=1e7),
        switch=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_uncontended_transfer_matches_estimate(
        self, nbytes, rate1, rate2, switch
    ):
        sim = Simulator()
        trace = StepBandwidth([(0.0, rate1), (switch, rate2)])
        link = Link(sim, bandwidth=trace, latency_s=0.01)
        estimate = link.estimate_transfer_time(nbytes)
        result = sim.run(until=sim.spawn(link.transfer(nbytes)))
        assert result.duration == pytest.approx(estimate, rel=1e-9, abs=1e-9)

    @given(
        nbytes=st.floats(min_value=1.0, max_value=1e6),
        rates=st.lists(st.floats(min_value=1e3, max_value=1e7),
                       min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_time_at_least_bottleneck_time(self, nbytes, rates):
        sim = Simulator()
        links = [Link(sim, bandwidth=rate) for rate in rates]
        path = NetworkPath(sim, links)
        result = sim.run(until=sim.spawn(path.transfer(nbytes)))
        assert result.duration >= nbytes / min(rates) - 1e-9


def tree_context(n, seed, uplink, weights=None):
    app = random_tree_app(n, RngStream(seed))
    work = {c.name: c.work_for(2.0) for c in app.components}
    return app, PartitionContext(
        app=app, input_mb=2.0, work=work, uplink_bps=uplink,
        weights=weights or ObjectiveWeights(),
    )


class TestPartitioningProperties:
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=500),
        uplink=st.floats(min_value=1e4, max_value=1e8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mincut_is_single_flip_stable(self, n, seed, uplink):
        """No single component move improves the min-cut partition —
        the first-order optimality condition of an exact optimum."""
        app, ctx = tree_context(n, seed, uplink)
        partition = MinCutPartitioner().partition(ctx)
        best = evaluate_partition(ctx, partition).objective
        for name in app.offloadable_names():
            flipped = evaluate_partition(ctx, partition.moved(name)).objective
            assert flipped >= best - max(1e-9 * abs(best), 1e-9)

    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=500),
        subset_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_never_exceeds_serialized(self, n, seed, subset_seed):
        app, ctx = tree_context(n, seed, 1.25e6)
        rng = RngStream(subset_seed)
        cloud = frozenset(
            name for name in app.offloadable_names() if rng.bernoulli(0.5)
        )
        evaluation = evaluate_partition(ctx, Partition(app.name, cloud))
        assert evaluation.makespan_s <= evaluation.serialized_latency_s + 1e-9
        assert evaluation.ue_energy_j >= 0
        assert evaluation.cloud_cost_usd >= 0

    @given(
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=300),
        scale=st.floats(min_value=1.5, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_optimal_objective_monotone_in_bandwidth(self, n, seed, scale):
        """More uplink bandwidth never makes the optimum worse."""
        base_uplink = 2e5
        _app, slow_ctx = tree_context(n, seed, base_uplink)
        _app, fast_ctx = tree_context(n, seed, base_uplink * scale)
        slow = ExhaustivePartitioner().evaluate(slow_ctx).objective
        fast = ExhaustivePartitioner().evaluate(fast_ctx).objective
        assert fast <= slow + 1e-9


class TestSchedulerProperties:
    @given(
        now=st.floats(min_value=0.0, max_value=1e5),
        slack=st.floats(min_value=0.0, max_value=1e5),
        estimate=st.floats(min_value=0.01, max_value=1e4),
        window=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_schedulers_dispatch_in_valid_interval(
        self, now, slack, estimate, window
    ):
        app = photo_backup_app()
        job = Job(app, released_at=now, deadline=now + slack)
        schedulers = [
            EagerScheduler(),
            DeadlineBatcher(window_s=window),
            CostWindowScheduler(lambda t: (t % 97.0), resolution_s=window),
        ]
        for scheduler in schedulers:
            decision = scheduler.decide(job, now, estimate)
            assert decision.dispatch_at >= now
            latest = scheduler.latest_safe_start(job, estimate)
            if latest >= now:
                assert decision.dispatch_at <= latest + 1e-6, scheduler.name


class TestStorageProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "get_ext", "delete"]),
                st.integers(min_value=0, max_value=4),  # key index
                st.floats(min_value=0.0, max_value=1e8),  # size for puts
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_object_store_invariants(self, ops):
        """For any op sequence: stored_bytes matches the live objects,
        cost is non-decreasing, and gb-seconds never shrink."""
        from repro.storage import ObjectNotFoundError, ObjectStore

        sim = Simulator()
        store = ObjectStore(sim, request_latency_s=0.001)
        live = {}
        last_cost = 0.0
        last_gbs = 0.0

        def advance():
            sim.timeout(1.0)
            sim.run()

        for op, key_index, size in ops:
            key = f"k{key_index}"
            try:
                if op == "put":
                    sim.run(until=store.put(key, size))
                    live[key] = size
                elif op == "delete":
                    store.delete(key)
                    live.pop(key, None)
                else:
                    sim.run(until=store.get(key, external=op == "get_ext"))
            except ObjectNotFoundError:
                assert key not in live
            advance()
            assert store.stored_bytes == pytest.approx(sum(live.values()))
            cost = store.total_cost()
            gbs = store.storage_gb_seconds()
            assert cost >= last_cost - 1e-12
            assert gbs >= last_gbs - 1e-12
            last_cost, last_gbs = cost, gbs


class TestFleetAggregation:
    @given(
        per_device=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=10, deadline=None)
    def test_fleet_report_sums_match_devices(self, per_device, seed):
        from repro.apps import nightly_analytics_app
        from repro.fleet import FleetController, FleetEnvironment

        env = FleetEnvironment.build(n_devices=len(per_device), seed=seed)
        fleet = FleetController(env, nightly_analytics_app())
        fleet.profile_offline()
        fleet.plan(input_mb=2.0)
        jobs = {
            device: [
                Job(fleet.app, input_mb=2.0, released_at=30.0 * k,
                    deadline=30.0 * k + 7200.0)
                for k in range(count)
            ]
            for device, count in enumerate(per_device)
        }
        report = fleet.run(jobs)
        assert report.jobs_completed == sum(per_device)
        assert report.total_ue_energy_j == pytest.approx(
            sum(r.total_ue_energy_j for r in report.per_device.values())
        )
        assert report.total_cloud_cost_usd == pytest.approx(
            sum(r.total_cloud_cost_usd for r in report.per_device.values())
        )


class TestBillingProperties:
    @given(
        work=st.floats(min_value=0.01, max_value=500.0),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_serverless_speedup_never_exceeds_vcpu_grant(self, work, p):
        from repro.serverless.function import (
            FULL_VCPU_MB,
            execution_time,
            vcpus_for_memory,
        )

        base = execution_time(work, FULL_VCPU_MB, p)
        for memory in (2048, 4096, 10240):
            speedup = base / execution_time(work, memory, p)
            assert speedup <= vcpus_for_memory(memory) + 1e-9
