"""Tests for the end-to-end offloading controller."""

import math
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DeadlineBatcher,
    EagerScheduler,
    Environment,
    Job,
    ObjectiveWeights,
    OffloadController,
    photo_backup_app,
)
from repro.apps.graph import AppGraph
from repro.apps.generators import (
    fanout_fanin_app,
    layered_random_app,
    linear_pipeline_app,
    random_tree_app,
)
from repro.baselines.policies import RandomPartitioner
from repro.core.allocation import MemoryAllocator
from repro.core.partitioning import (
    FixedPartitioner,
    MinCutPartitioner,
    Partition,
    PartitionContext,
    Partitioner,
    SimulatedAnnealingPartitioner,
)
from repro.device.ue import DeviceSpec
from repro.fleet import FleetController, FleetEnvironment
from repro.fleet.sharded import ShardedFleetSpec, run_sharded
from repro.fleet.topology import FleetTopology
from repro.profiling.profiler import DemandObservation
from repro.sim.rng import RngStream


def make_controller(seed=0, app=None, **kwargs):
    env = Environment.build(seed=seed, connectivity="4g")
    app = app or photo_backup_app()
    return OffloadController(env, app, **kwargs)


class TestPlanning:
    def test_plan_deploys_cloud_functions(self):
        controller = make_controller()
        controller.profile_offline()
        partition = controller.plan(input_mb=4.0)
        platform = controller.env.platform
        for name in partition.cloud:
            assert platform.is_deployed(f"photo_backup.{name}")
        assert set(controller.allocation) == set(partition.cloud)

    def test_pinned_never_deployed(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        assert not controller.env.platform.is_deployed("photo_backup.capture")

    def test_replanning_is_idempotent_without_change(self):
        controller = make_controller()
        controller.profile_offline()
        first = controller.plan(input_mb=4.0)
        # Touch the warm pool, replan with the same inputs: pools survive
        # because nothing redeploys.
        second = controller.plan(input_mb=4.0)
        assert first == second

    def test_estimate_completion_positive_and_conservative(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0)
        estimate = controller.estimate_completion(job)
        assert estimate > 0

    def test_submitting_foreign_job_rejected(self):
        from repro.apps import ml_training_app

        controller = make_controller()
        with pytest.raises(ValueError):
            controller.submit(Job(ml_training_app()))

    def test_replan_every_validation(self):
        with pytest.raises(ValueError):
            make_controller(replan_every=0)


class CountingPartitioner(Partitioner):
    """Wraps a partitioner and counts its calls."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def partition(self, ctx):
        self.calls += 1
        return self.inner.partition(ctx)


class PureCountingPartitioner(CountingPartitioner):
    """A call counter its controller may memoise (MinCut is pure)."""

    pure = True


class CallCounting:
    """Mixin counting ``partition`` calls; keeps the base class's mark."""

    calls = 0

    def partition(self, ctx):
        self.calls += 1
        return super().partition(ctx)


class CountingAnnealer(CallCounting, SimulatedAnnealingPartitioner):
    pass


class CountingRandom(CallCounting, RandomPartitioner):
    pass


def reference_plan(controller, input_mb):
    """The unconditional two-pass plan, computed without side effects."""
    partitioner = MinCutPartitioner()

    def allocate(partition):
        return controller.allocator.allocate_app(
            controller.app, partition, controller.demand, input_mb,
            controller.latency_slo_s,
        )

    context = controller.build_context(input_mb)
    first = allocate(partitioner.partition(context))
    context = replace(
        context,
        memory_plan={name: d.memory_mb for name, d in first.items()},
    )
    partition = partitioner.partition(context)
    return partition, allocate(partition)


class TestPlanFixedPoint:
    def plan_and_count(self, controller, input_mb):
        expected = reference_plan(controller, input_mb)
        counter = controller.partitioner
        before = counter.calls
        partition = controller.plan(input_mb)
        assert (partition, controller.allocation) == expected
        return counter.calls - before

    def make(self, connectivity="4g", **kwargs):
        env = Environment.build(seed=0, connectivity=connectivity)
        controller = OffloadController(
            env, photo_backup_app(),
            partitioner=CountingPartitioner(MinCutPartitioner()), **kwargs
        )
        controller.profile_offline()
        return controller

    def test_second_pass_that_moves_the_partition_reallocates(self):
        # At 128-256 MB the cloud is slow enough on 3G that the refined
        # pass pulls components back to the UE.
        controller = self.make("3g")
        controller.allocator = MemoryAllocator(
            billing=controller.env.platform.config.billing,
            tiers_mb=(128, 256),
        )
        full = set(controller.app.offloadable_names())
        assert self.plan_and_count(controller, 16.0) == 2
        assert controller.partition.cloud < full
        assert set(controller.allocation) == controller.partition.cloud

    def test_first_plan_with_cloud_components_partitions_twice(self):
        controller = self.make()
        assert self.plan_and_count(controller, 4.0) == 2
        assert controller.partition.cloud

    def test_unchanged_replan_partitions_once(self):
        controller = self.make()
        self.plan_and_count(controller, 4.0)
        assert self.plan_and_count(controller, 4.0) == 1
        assert self.plan_and_count(controller, 8.0) == 1

    def test_replan_after_memory_plan_moves_partitions_twice(self):
        controller = self.make()
        self.plan_and_count(controller, 4.0)
        before = {n: d.memory_mb for n, d in controller.allocation.items()}
        controller.allocator = MemoryAllocator(
            billing=controller.env.platform.config.billing,
            tiers_mb=(512, 1024, 3008),
        )
        assert self.plan_and_count(controller, 4.0) == 2
        after = {n: d.memory_mb for n, d in controller.allocation.items()}
        assert after != before
        assert self.plan_and_count(controller, 4.0) == 1

    def test_all_local_first_plan_partitions_once(self):
        controller = self.make()
        controller.plan_rate_overrides.update(uplink=125.0, downlink=125.0)
        assert self.plan_and_count(controller, 4.0) == 1
        assert not controller.partition.cloud

    def test_pure_partitioner_skips_a_repeated_context(self):
        env = Environment.build(seed=0, connectivity="4g")
        controller = OffloadController(
            env, photo_backup_app(),
            partitioner=PureCountingPartitioner(MinCutPartitioner()),
        )
        controller.profile_offline()
        assert self.plan_and_count(controller, 4.0) == 2
        # The first re-plan prices the new memory sizes: a new context.
        assert self.plan_and_count(controller, 4.0) == 1
        assert self.plan_and_count(controller, 4.0) == 0
        assert self.plan_and_count(controller, 4.0) == 0

    def test_fleet_devices_with_one_context_partition_once(self):
        env = FleetEnvironment.build(4, seed=0, connectivity="4g")
        counter = PureCountingPartitioner(MinCutPartitioner())
        fleet = FleetController(env, photo_backup_app(), partitioner=counter)
        fleet.profile_offline()
        for controller in fleet.controllers:
            expected = reference_plan(controller, 4.0)
            assert controller.plan(4.0) == expected[0]
            assert controller.allocation == expected[1]
        assert counter.calls == 2
        assert env.sim.meter.plans_computed == 4

    @pytest.mark.parametrize("kind", ["annealing", "random"])
    def test_impure_partitioner_calls_are_unchanged_in_a_fleet(self, kind):
        # The counts are those of the two-pass planner before the plan
        # memo existed: an impure partitioner never reads the memo.
        env = FleetEnvironment.build(
            4, seed=0, connectivity=("4g", "wifi")
        )
        if kind == "annealing":
            counter = CountingAnnealer(
                env.rng.stream("annealing"), iterations=20
            )
        else:
            counter = CountingRandom(env.rng.stream("random"))
        assert not counter.pure
        fleet = FleetController(env, photo_backup_app(), partitioner=counter)
        fleet.profile_offline()
        for controller in fleet.controllers:
            controller.adaptive = True
            controller.replan_every = 1
        fleet.plan(4.0)
        fleet.plan(4.0)
        fleet.plan(1.0)
        fleet.run({
            index: [
                Job(fleet.app, input_mb=2.0, released_at=30.0 * k)
                for k in range(2)
            ]
            for index in range(4)
        })
        assert env.sim.meter.plans_computed == 20
        assert counter.calls == {"annealing": 24, "random": 40}[kind]


def generated_app(family, size, seed):
    """One app of about ``size`` components from a generator family."""
    rng = RngStream(seed)
    if family == "pipeline":
        return linear_pipeline_app(size, rng)
    if family == "fanout":
        return fanout_fanin_app(max(size - 2, 1), rng)
    if family == "tree":
        return random_tree_app(size, rng)
    return layered_random_app(max(size // 2, 2), 2, rng)


def perturbed(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2.0 + 1.0
    if isinstance(value, dict):
        if not value:
            return {"extra": 1.0}
        name = next(iter(value))
        return {**value, name: perturbed(value[name])}
    if is_dataclass(value):
        first = fields(value)[0].name
        return replace(value, **{first: perturbed(getattr(value, first))})
    if isinstance(value, AppGraph):
        return AppGraph(value.name, list(value.components), list(value.flows))
    raise TypeError(f"no perturbation for {type(value).__name__}")


class TestPlanMemo:
    def test_key_covers_every_context_field(self):
        app = photo_backup_app()
        context = PartitionContext(
            app=app,
            input_mb=4.0,
            work={name: 1.0 for name in app.component_names},
            memory_plan={"transcode": 1024.0},
        )
        key = context.key()
        assert hash(key) == hash(replace(context).key())
        for field in fields(PartitionContext):
            value = perturbed(getattr(context, field.name))
            changed = replace(context, **{field.name: value})
            assert changed.key() != key, field.name

    def test_key_ignores_dict_insertion_order(self):
        app = photo_backup_app()
        work = {name: 1.0 for name in app.component_names}
        first = PartitionContext(app=app, input_mb=1.0, work=work)
        second = PartitionContext(
            app=app, input_mb=1.0, work=dict(reversed(list(work.items())))
        )
        assert first.key() == second.key()

    @pytest.mark.parametrize("swap", ["allocator", "latency_slo_s"])
    def test_swapping_allocator_or_slo_misses_the_memo(self, swap):
        env = Environment.build(seed=0, connectivity="4g")
        billing = env.platform.config.billing
        controller = OffloadController(
            env, photo_backup_app(),
            allocator=MemoryAllocator(billing=billing, tiers_mb=(128, 512, 3008)),
        )
        controller.profile_offline()
        controller.plan(4.0)
        controller.plan(4.0)
        before = dict(controller.allocation)
        # Same context key either way: only the allocation changes.
        if swap == "allocator":
            controller.allocator = MemoryAllocator(
                billing=billing, tiers_mb=(1024, 3008)
            )
        else:
            controller.latency_slo_s = 40.0
        expected = reference_plan(controller, 4.0)
        assert controller.plan(4.0) == expected[0]
        assert controller.allocation == expected[1] != before

    def test_pure_marks(self):
        assert MinCutPartitioner.pure and FixedPartitioner.pure
        assert not Partitioner.pure
        assert not SimulatedAnnealingPartitioner.pure
        assert not RandomPartitioner.pure
        assert not CountingPartitioner.pure

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["pipeline", "fanout", "tree", "layered"]),
        size=st.integers(min_value=2, max_value=10),
        app_seed=st.integers(min_value=0, max_value=2**16),
        connectivity=st.lists(
            st.sampled_from(["3g", "4g", "wifi"]), min_size=3, max_size=3
        ),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.5, 4.0, 16.0]),
                st.sampled_from([None, 125.0, 1.25e6, 1e8]),
                st.sampled_from([None, 125.0, 5e6]),
                st.integers(min_value=0, max_value=3).map(lambda n: n == 0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_shared_memo_plans_equal_fresh_two_pass_plans(
        self, family, size, app_seed, connectivity, steps
    ):
        # Every step re-plans the whole fleet under one set of pinned
        # rates, as remediation does, so devices that share a
        # connectivity class (or a pinned rate) hit each other's plans.
        env = FleetEnvironment.build(3, seed=0, connectivity=connectivity)
        fleet = FleetController(env, generated_app(family, size, app_seed))
        fleet.profile_offline(input_sizes_mb=(0.5, 4.0), repetitions=1)
        for input_mb, uplink, downlink, learn in steps:
            if learn:
                # Online learning moves the shared demand model, so every
                # earlier memo entry is now priced at stale work.
                fleet.demand.observe(DemandObservation(
                    component=fleet.app.component_names[-1],
                    input_mb=input_mb,
                    measured_gcycles=3.0 * input_mb + 1.0,
                    at_time=0.0,
                ))
            for controller in fleet.controllers:
                controller.plan_rate_overrides.clear()
                if uplink is not None:
                    controller.plan_rate_overrides["uplink"] = uplink
                if downlink is not None:
                    controller.plan_rate_overrides["downlink"] = downlink
                expected = reference_plan(controller, input_mb)
                partition = controller.plan(input_mb)
                assert (partition, controller.allocation) == expected

    def test_remediated_fleet_memo_hits_equal_fresh_plans(self, monkeypatch):
        solves = []
        hits = []
        solve = OffloadController._solve
        plan = OffloadController.plan

        def counted_solve(self, context, input_mb):
            solves.append(input_mb)
            return solve(self, context, input_mb)

        def checked_plan(self, input_mb=1.0):
            expected = reference_plan(self, input_mb)
            before = len(solves)
            partition = plan(self, input_mb)
            if len(solves) == before:
                hits.append(input_mb)
                assert (partition, self.allocation) == expected
            return partition

        monkeypatch.setattr(OffloadController, "_solve", counted_solve)
        monkeypatch.setattr(OffloadController, "plan", checked_plan)
        spec = ShardedFleetSpec(
            topology=FleetTopology.uniform(
                2, 25, connectivity=("4g", "wifi", "3g"), jobs_per_ue=2,
                seed=0,
            ),
            monitor=True,
            chaos="uplink-outage",
            remediate=True,
        )
        result = run_sharded(spec, n_shards=2, workers=1)
        assert result.aggregates["jobs_completed"] == 100
        # 150 plans, most of them remediation re-plans; 18 solve.
        assert len(solves) + len(hits) == 150
        assert len(hits) > 100


class TestExecution:
    def test_single_job_completes(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0, deadline=3600.0)
        report = controller.run_workload([job])
        assert report.jobs_completed == 1
        assert not report.failures
        result = report.results[0]
        assert result.finished_at > result.started_at
        assert set(result.component_finish_times) == set(
            controller.app.component_names
        )

    def test_component_order_respects_dag(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        report = controller.run_workload([Job(controller.app, input_mb=2.0)])
        finish = report.results[0].component_finish_times
        for flow in controller.app.flows:
            assert finish[flow.src] <= finish[flow.dst]

    def test_energy_and_cost_accounted(self):
        controller = make_controller()
        controller.profile_offline()
        partition = controller.plan(input_mb=4.0)
        report = controller.run_workload([Job(controller.app, input_mb=4.0)])
        result = report.results[0]
        assert result.ue_energy_j > 0
        if partition.cloud:
            assert result.cloud_cost_usd > 0
            assert result.cloud_cost_usd == pytest.approx(
                controller.env.platform.total_cost
            )

    def test_local_only_partition_runs_entirely_on_ue(self):
        app = photo_backup_app()
        controller = make_controller(
            app=app, partitioner=FixedPartitioner(Partition.local_only(app))
        )
        controller.plan(input_mb=2.0)
        report = controller.run_workload([Job(app, input_mb=2.0)])
        assert report.results[0].cloud_cost_usd == 0.0
        assert controller.env.platform.total_cost == 0.0

    def test_auto_plan_on_first_submit(self):
        controller = make_controller()
        report = controller.run_workload([Job(controller.app, input_mb=1.0)])
        assert report.jobs_completed == 1
        assert controller.partition is not None

    def test_multiple_jobs_all_complete(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        jobs = [
            Job(controller.app, input_mb=2.0, released_at=20.0 * i)
            for i in range(8)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 8
        finishes = [r.finished_at for r in report.results]
        assert finishes == sorted(finishes)


class TestScheduling:
    def test_batcher_defers_dispatch(self):
        eager = make_controller(seed=1, scheduler=EagerScheduler())
        eager.profile_offline()
        eager.plan(input_mb=2.0)
        eager_report = eager.run_workload(
            [Job(eager.app, input_mb=2.0, released_at=10.0, deadline=7200.0)]
        )

        batched = make_controller(
            seed=1, scheduler=DeadlineBatcher(window_s=600.0)
        )
        batched.profile_offline()
        batched.plan(input_mb=2.0)
        batched_report = batched.run_workload(
            [Job(batched.app, input_mb=2.0, released_at=10.0, deadline=7200.0)]
        )
        assert (
            batched_report.results[0].started_at
            > eager_report.results[0].started_at + 500.0
        )
        assert batched_report.deadline_miss_rate == 0.0

    def test_deadline_miss_recorded(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        impossible = Job(controller.app, input_mb=4.0, deadline=0.001)
        report = controller.run_workload([impossible])
        assert report.deadline_miss_rate == 1.0


class TestAdaptivity:
    def test_online_observations_accumulate(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        before = controller.demand.estimators["transcode"].observation_count
        controller.run_workload([Job(controller.app, input_mb=2.0)])
        after = controller.demand.estimators["transcode"].observation_count
        assert after == before + 1

    def test_adaptive_replans(self):
        controller = make_controller(adaptive=True, replan_every=2)
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        jobs = [
            Job(controller.app, input_mb=2.0, released_at=10.0 * i)
            for i in range(5)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 5


class TestBatteryFailure:
    def test_depletion_recorded_as_failure(self):
        env = Environment.build(seed=0, device=DeviceSpec(battery_capacity_j=0.5))
        app = photo_backup_app()
        controller = OffloadController(
            env, app, partitioner=FixedPartitioner(Partition.local_only(app))
        )
        controller.plan(input_mb=10.0)
        report = controller.run_workload([Job(app, input_mb=10.0)])
        assert len(report.failures) == 1
        assert report.jobs_completed == 0
        assert report.deadline_miss_rate == 1.0


class TestAdmissionControl:
    def test_unmeetable_job_rejected_without_execution(self):
        from repro.core.controller import JobRejectedError

        env = Environment.build(seed=4)
        controller = make_controller(seed=4, admission_control=True)
        controller = OffloadController(
            env, photo_backup_app(), admission_control=True
        )
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        start_battery = env.ue.battery_level_j
        impossible = Job(controller.app, input_mb=4.0, deadline=0.5)
        report = controller.run_workload([impossible])
        assert report.rejections == 1
        assert report.jobs_completed == 0
        assert isinstance(report.failures[0].error, JobRejectedError)
        # Nothing ran: no energy drained, no invocations billed.
        assert env.ue.battery_level_j == start_battery
        assert env.platform.total_cost == 0.0

    def test_feasible_job_admitted(self):
        controller = make_controller(seed=5, admission_control=True)
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0, deadline=3600.0)
        report = controller.run_workload([job])
        assert report.rejections == 0
        assert report.jobs_completed == 1

    def test_best_effort_jobs_never_rejected(self):
        controller = make_controller(seed=6, admission_control=True)
        report = controller.run_workload([Job(controller.app, input_mb=2.0)])
        assert report.rejections == 0
        assert report.jobs_completed == 1

    def test_off_by_default(self):
        controller = make_controller(seed=7)
        impossible = Job(controller.app, input_mb=4.0, deadline=0.5)
        report = controller.run_workload([impossible])
        assert report.rejections == 0  # ran and missed instead
        assert report.jobs_completed == 1
        assert report.deadline_miss_rate == 1.0


class TestFailureInjectionIntegration:
    def test_retries_absorb_transient_failures(self):
        from repro.serverless import PlatformConfig, RetryPolicy

        env = Environment.build(
            seed=3, platform_config=PlatformConfig(failure_probability=0.25)
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.5),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        jobs = [
            Job(controller.app, input_mb=3.0, released_at=30.0 * i,
                deadline=30.0 * i + 3600.0)
            for i in range(8)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 8
        assert not report.failures
        assert env.metrics.snapshot()["faas.failures"] > 0
        # Job costs include the wasted failed attempts, matching the
        # platform's own bill.
        assert report.total_cloud_cost_usd == pytest.approx(
            env.platform.total_cost
        )

    def test_exhausted_retries_fail_the_job(self):
        from repro.serverless import PlatformConfig, RetryPolicy

        env = Environment.build(
            seed=5, platform_config=PlatformConfig(failure_probability=0.97)
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.1),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        report = controller.run_workload(
            [Job(controller.app, input_mb=3.0, deadline=3600.0)]
        )
        assert len(report.failures) == 1
        assert report.deadline_miss_rate == 1.0


class TestReport:
    def test_percentiles(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=1.0)
        jobs = [
            Job(controller.app, input_mb=1.0, released_at=5.0 * i) for i in range(6)
        ]
        report = controller.run_workload(jobs)
        assert report.percentile_response_s(0) <= report.percentile_response_s(99)
        assert report.mean_response_s > 0

    def test_empty_report_stats(self):
        from repro.core.controller import ControllerReport

        report = ControllerReport()
        assert report.deadline_miss_rate == 0.0
        assert math.isnan(report.mean_response_s)
        assert math.isnan(report.percentile_response_s(50))
