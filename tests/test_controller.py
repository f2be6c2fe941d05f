"""Tests for the end-to-end offloading controller."""

import math
from dataclasses import replace

import pytest

from repro import (
    DeadlineBatcher,
    EagerScheduler,
    Environment,
    Job,
    ObjectiveWeights,
    OffloadController,
    photo_backup_app,
)
from repro.core.allocation import MemoryAllocator
from repro.core.partitioning import (
    FixedPartitioner,
    MinCutPartitioner,
    Partition,
    Partitioner,
)
from repro.device.ue import DeviceSpec


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
