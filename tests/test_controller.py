"""Tests for the end-to-end offloading controller."""

import math
import re
import sys
from collections import Counter
from dataclasses import replace

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
from repro.apps.generators import (
    fanout_fanin_app,
    layered_random_app,
    linear_pipeline_app,
    random_tree_app,
)
from repro.baselines import EdgeEnvironment, EdgeJobRunner
from repro.baselines.policies import RandomPartitioner
from repro.core.allocation import MemoryAllocator
from repro.core.demand import DemandModel, RegressionEstimator, StaticEstimator
from repro.core.partitioning import (
    FixedPartitioner,
    MinCutPartitioner,
    Partition,
    Partitioner,
    SimulatedAnnealingPartitioner,
)
from repro.device.ue import DeviceSpec
from repro.fleet import FleetController, FleetEnvironment
from repro.fleet.sharded import ShardedFleetSpec, run_sharded
from repro.fleet.topology import FleetTopology
from repro.profiling.profiler import DemandObservation
from repro.serverless.platform import ServerlessPlatform
from repro.sim import Simulator
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


def fresh_allocator(allocator):
    """An allocator configured like ``allocator``, with an empty memo."""
    return MemoryAllocator(
        billing=allocator.billing,
        tiers_mb=allocator.tiers_mb,
        strategy=allocator.strategy,
        coarse_stride=allocator.coarse_stride,
        cost_tolerance=allocator.cost_tolerance,
    )


def reference_plan(controller, input_mb):
    """The unconditional two-pass plan, computed without side effects."""
    partitioner = MinCutPartitioner()
    allocator = fresh_allocator(controller.allocator)

    def allocate(partition):
        return allocator.allocate_app(
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


class TestPlanMemo:
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


class TestExactMemos:
    """The re-plan memos (plans, allocations, deploy passes) give
    exactly what recomputing gives."""

    @pytest.mark.parametrize(
        "path", ["observe", "observe_profile", "ingest_history", "estimator"]
    )
    def test_prediction_memo_invalidates_on_every_observation_path(
        self, path, monkeypatch
    ):
        """The plan memo pins each prediction by its estimator's
        observation count, so an observation on any path makes the next
        plan predict and solve again."""
        solves = []
        solve = OffloadController._solve

        def counted(self, context, input_mb):
            solves.append(context.work)
            return solve(self, context, input_mb)

        monkeypatch.setattr(OffloadController, "_solve", counted)
        controller = make_controller()
        controller.profile_offline()
        model = controller.demand
        name = controller.app.component_names[-1]
        # The first plan sizes the functions, so the second plans at
        # those sizes and is the first that a third can hit.
        for _ in range(3):
            controller.plan(4.0)
        assert len(solves) == 2
        observation = DemandObservation(
            component=name, input_mb=4.0, measured_gcycles=90.0, at_time=0.0
        )
        if path == "observe":
            model.observe(observation)
        elif path == "observe_profile":
            model.observe_profile({name: [observation]})
        elif path == "ingest_history":
            assert model.ingest_history([observation]) == 1
        else:
            model.estimators[name].observe(observation)
        expected = reference_plan(controller, 4.0)
        assert controller.plan(4.0) == expected[0]
        assert controller.allocation == expected[1]
        assert len(solves) == 3
        assert solves[2][name] == model.predict(name, 4.0) != solves[1][name]

    #: One allocator per strategy and one app per generator draw, shared
    #: by every example, so the memos fill up and later draws hit
    #: entries of earlier ones.
    SHARED = {
        strategy: MemoryAllocator(strategy=strategy)
        for strategy in ("scan", "convex", "coarse")
    }
    APPS = {}

    @settings(max_examples=80, deadline=None)
    @given(
        strategy=st.sampled_from(["scan", "convex", "coarse"]),
        family=st.sampled_from(["pipeline", "fanout", "tree", "layered"]),
        size=st.integers(min_value=2, max_value=6),
        app_seed=st.integers(min_value=0, max_value=2),
        steps=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_memoised_allocation_equals_a_fresh_allocator(
        self, strategy, family, size, app_seed, steps, data
    ):
        key = (family, size, app_seed)
        if key not in self.APPS:
            self.APPS[key] = generated_app(family, size, app_seed)
        app = self.APPS[key]
        offloadable = sorted(app.offloadable_names())
        shared = self.SHARED[strategy]
        for _ in range(steps):
            cloud = data.draw(
                st.sets(st.sampled_from(offloadable))
                if offloadable
                else st.just(set())
            )
            partition = Partition(app.name, frozenset(cloud))
            latency_slo_s = data.draw(
                st.sampled_from([math.inf, 0.05, 2.0, 30.0])
            )
            demand = DemandModel(app, RegressionEstimator)
            for name in app.component_names:
                demand.estimators[name] = StaticEstimator(
                    name, data.draw(st.sampled_from([0.0, 0.4, 3.0, 50.0]))
                )

            def allocate(allocator):
                try:
                    return allocator.allocate_app(
                        app, partition, demand, 4.0, latency_slo_s
                    )
                except ValueError as error:
                    return str(error)

            expected = allocate(MemoryAllocator(strategy=strategy))
            first = allocate(shared)
            assert first == expected
            if isinstance(first, dict):
                first.clear()  # a caller's edit must not reach the memo
            assert allocate(shared) == expected

    def test_shared_function_names_redeploy_after_each_other(
        self, monkeypatch
    ):
        deploys = []
        deploy = ServerlessPlatform.deploy

        def counted(self, spec):
            deploys.append((spec.name, spec.memory_mb))
            deploy(self, spec)

        monkeypatch.setattr(ServerlessPlatform, "deploy", counted)

        def alternate(full_pass):
            # Two controllers on one platform deploy the same function
            # names at different sizes: their allocators offer disjoint
            # small tiers.
            env = Environment.build(seed=0, connectivity="4g")
            app = photo_backup_app()
            billing = env.platform.config.billing
            first = OffloadController(env, app, allocator=MemoryAllocator(
                billing=billing, tiers_mb=(128, 512, 3008)
            ))
            second = OffloadController(env, app, allocator=MemoryAllocator(
                billing=billing, tiers_mb=(1024, 3008)
            ), demand_model=first.demand)
            first.profile_offline()
            platform = env.platform
            deploys.clear()
            steps = [first, second, second, first, first, second, first]
            for step, controller in enumerate(steps):
                if step == 2:
                    # Only the platform's generation shows this change.
                    platform.undeploy("photo_backup.transcode")
                if step == 4:
                    first.memory_floor_mb = 2048.0
                if full_pass:
                    controller._deployed = None  # every spec compared
                controller.plan(4.0)
                for name, decision in controller.allocation.items():
                    spec = platform.spec(f"photo_backup.{name}")
                    assert spec.memory_mb == max(
                        decision.memory_mb, controller.memory_floor_mb
                    )
            assert first.allocation != second.allocation
            return list(deploys)

        skipped = alternate(full_pass=False)
        assert skipped == alternate(full_pass=True)
        # Five functions per pass; the re-plan after the undeploy
        # redeploys one.
        assert len(skipped) == 5 + 5 + 1 + 5 + 5 + 5 + 5


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


#: Processes one photo_backup job (4g, eager) spawns, by name with digits
#: stripped: one per parallel branch.  The release driver runs the job
#: and its entry chain (capture, transcode); each other serial chain is
#: one process named after its head (thumbnail; feature_extract and
#: dedup_hash; index_update and notify).  Fused links, both cross-tier
#: ones included, run inside their chain; platform invocations, path
#: transfers and their link hops, UE radio and execution bodies and the
#: retry loop run inline, so no ``job.*``, ``edge.*``, ``faas.*`` or
#: ``*.xfer`` process appears.
JOB_PROCESS_BUDGET = {
    "release": 1,
    "comp.thumbnail": 1,
    "comp.feature_extract": 1,
    "comp.index_update": 1,
}


def _photo_jobs(runner, n):
    return [
        Job(runner.app, input_mb=4.0, released_at=60.0 * i,
            deadline=60.0 * i + 3600.0)
        for i in range(n)
    ]


def _count_spawns(monkeypatch) -> Counter:
    """Count every process spawned from here on by name, digits dropped
    (job and span numbers vary, the shape does not)."""
    spawned = Counter()
    spawn = Simulator.spawn

    def counting_spawn(sim, generator, name=None):
        process = spawn(sim, generator, name)
        spawned[re.sub(r"\d+", "", process.name)] += 1
        return process

    monkeypatch.setattr(Simulator, "spawn", counting_spawn)
    return spawned


class TestJobBudget:
    def test_job_process_budget(self, monkeypatch):
        """20 jobs spawn exactly the budgeted processes and dispatch the
        pinned number of kernel events: a wrapper process that comes back
        (a spawn-and-wait layer, a no-op edge) fails here by name."""
        controller = make_controller(scheduler=EagerScheduler())
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        spawned = _count_spawns(monkeypatch)
        report = controller.run_workload(_photo_jobs(controller, 20))
        assert report.jobs_completed == 20
        assert dict(spawned) == {
            name: 20 * count for name, count in JOB_PROCESS_BUDGET.items()
        }
        assert controller.env.sim.events_processed == 785

    def test_edge_job_process_budget(self, monkeypatch):
        """The edge baseline runs a job on the controller's driver: the
        same 4 processes per ``photo_backup`` job (no process per flow or
        per edge-node execution) and 800 kernel events for 20 jobs."""
        env = EdgeEnvironment.build(seed=0, connectivity="4g")
        runner = EdgeJobRunner(env, photo_backup_app())
        spawned = _count_spawns(monkeypatch)
        report = runner.run_workload(_photo_jobs(runner, 20))
        assert report.jobs_completed == 20
        assert dict(spawned) == {
            name: 20 * count for name, count in JOB_PROCESS_BUDGET.items()
        }
        assert env.sim.events_processed == 800

    def test_no_dataclass_record_per_job(self):
        """A job builds no dataclass instance: every per-operation record
        is a named tuple.  Counted as calls to dataclass-generated
        ``__init__`` methods (their code is compiled from a string), the
        count over 40 jobs equals the count over 20."""

        def generated_inits(n):
            controller = make_controller(scheduler=EagerScheduler())
            controller.profile_offline()
            controller.plan(input_mb=4.0)
            jobs = _photo_jobs(controller, n)
            calls = 0

            def profile(frame, event, _arg):
                nonlocal calls
                code = frame.f_code
                if (
                    event == "call"
                    and code.co_name == "__init__"
                    and code.co_filename == "<string>"
                ):
                    calls += 1

            sys.setprofile(profile)
            try:
                report = controller.run_workload(jobs)
            finally:
                sys.setprofile(None)
            assert report.jobs_completed == n
            return calls

        assert generated_inits(20) == generated_inits(40)

    def test_negative_path_transfer_raises(self):
        env = Environment.build(seed=0, connectivity="4g")
        with pytest.raises(ValueError, match="nbytes"):
            next(env.uplink.transfer(-1))

    def test_exhausted_retries_fail_as_before_and_free_resources(self):
        """The retry loop runs inside the component process; a job whose
        cloud component runs out of attempts still fails at the same
        instant with the same error, and leaves no core or channel held."""
        from repro.serverless import PlatformConfig, RetriesExhaustedError
        from repro.serverless import RetryPolicy

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
        (failure,) = report.failures
        assert isinstance(failure.error, RetriesExhaustedError)
        assert str(failure.error) == (
            "photo_backup.transcode: 2 attempts failed ($1.47e-04 billed)"
        )
        assert failure.failed_at == 8.837014797757831
        metrics = env.metrics.snapshot()
        assert metrics["faas.failures"] == 2.0
        assert metrics["faas.cost_usd"] == 0.00014707099976757815
        assert env.ue._cpu.in_use == 0
        for link in env.uplink.links + env.downlink.links:
            assert link._channels.in_use == 0
            assert link.queue_length == 0

    @pytest.mark.parametrize("scheduler", ["eager", "batcher"])
    def test_estimate_only_when_the_scheduler_reads_it(
        self, scheduler, monkeypatch
    ):
        """Eager dispatch never computes the completion estimate, yet
        still refreshes the last-known-good link rates outage planning
        falls back on; a deferring scheduler gets its estimate."""
        chosen = EagerScheduler() if scheduler == "eager" else DeadlineBatcher()
        controller = make_controller(scheduler=chosen)
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        calls = []
        estimate = controller.estimate_completion

        def counted(job, frequency_fraction=1.0):
            calls.append(job.job_id)
            return estimate(job, frequency_fraction)

        monkeypatch.setattr(controller, "estimate_completion", counted)
        controller._last_rates.clear()
        report = controller.run_workload(
            [Job(controller.app, input_mb=2.0, deadline=3600.0)]
        )
        assert report.jobs_completed == 1
        assert len(calls) == chosen.needs_estimate
        assert set(controller._last_rates) == {"uplink", "downlink"}


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


class TestJobDriver:
    """The release driver runs each job inside itself; its outcomes stay
    what a spawned job process gave."""

    def test_foreign_job_fails_the_run(self):
        from repro.apps import ml_training_app

        controller = make_controller()
        with pytest.raises(ValueError, match="ml_training"):
            controller.run_workload([Job(ml_training_app(), released_at=5.0)])
        assert controller.env.sim.now == 5.0

    def test_rejection_recorded_at_release(self):
        from repro.core.controller import JobRejectedError

        controller = OffloadController(
            Environment.build(seed=4), photo_backup_app(),
            admission_control=True,
        )
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        rejected = Job(controller.app, input_mb=4.0, released_at=30.0,
                       deadline=30.5)
        admitted = Job(controller.app, input_mb=4.0, released_at=45.0,
                       deadline=3600.0)
        report = controller.run_workload([rejected, admitted])
        (failure,) = report.failures
        assert failure.job is rejected
        assert isinstance(failure.error, JobRejectedError)
        assert failure.failed_at == 30.0
        assert [r.job for r in report.results] == [admitted]
        assert report.results[0].finished_at == 66.11737004426335

    def test_exhausted_retries_inside_a_fused_chain(self):
        """document_ocr is one serial chain, run by the driver itself; a
        cloud component in its middle that runs out of attempts fails
        the job at the same instant as when each component was a
        process of its own."""
        from repro.apps import document_ocr_app
        from repro.serverless import PlatformConfig, RetriesExhaustedError
        from repro.serverless import RetryPolicy

        env = Environment.build(
            seed=1, platform_config=PlatformConfig(failure_probability=0.9)
        )
        controller = OffloadController(
            env,
            document_ocr_app(),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.1),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        assert "preprocess" in controller.partition.cloud
        report = controller.run_workload(
            [Job(controller.app, input_mb=3.0, deadline=3600.0)]
        )
        (failure,) = report.failures
        assert isinstance(failure.error, RetriesExhaustedError)
        assert str(failure.error) == (
            "document_ocr.preprocess: 2 attempts failed ($1.51e-04 billed)"
        )
        assert failure.failed_at == 8.254991077891702
        assert env.ue._cpu.in_use == 0


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
