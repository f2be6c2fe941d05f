"""Tests for workflow-orchestrated job execution."""

import pytest

from repro import Environment, Job, ObjectiveWeights, photo_backup_app
from repro.apps import AppGraph, Component, DataFlow, ml_training_app, nightly_analytics_app
from repro.apps.generators import layered_random_app, random_tree_app
from repro.core.controller import OffloadController
from repro.core.partitioning import FixedPartitioner, Partition
from repro.core.workflow_runner import WorkflowOffloadRunner, is_phase_shaped
from repro.sim.rng import RngStream


class TestPhaseShape:
    def test_catalog_full_offload_is_phase_shaped(self):
        for factory in (photo_backup_app, nightly_analytics_app, ml_training_app):
            app = factory()
            assert is_phase_shaped(app, Partition.full_offload(app))

    def test_local_only_is_phase_shaped(self):
        app = photo_backup_app()
        assert is_phase_shaped(app, Partition.local_only(app))

    def test_sandwich_is_not_phase_shaped(self):
        """cloud -> local -> cloud breaks the single-region property."""
        app = AppGraph(
            "sandwich",
            [Component("a"), Component("b"), Component("c")],
            [DataFlow("a", "b"), DataFlow("b", "c")],
        )
        partition = Partition("sandwich", frozenset({"a", "c"}))
        assert not is_phase_shaped(app, partition)

    def test_matches_its_definition_on_random_dags(self):
        """Phase-shaped exactly when no local component has both a cloud
        ancestor and a cloud descendant, found here by walking each
        component's ancestors and descendants; random trees and layered
        DAGs under random partitions, with both outcomes seen."""

        def reach(name, step):
            seen, frontier = set(), list(step(name))
            while frontier:
                node = frontier.pop()
                if node not in seen:
                    seen.add(node)
                    frontier.extend(step(node))
            return seen

        rng = RngStream(11)
        outcomes = set()
        for seed in range(4):
            for app in (
                random_tree_app(7, RngStream(seed)),
                layered_random_app(3, 3, RngStream(100 + seed)),
            ):
                names = app.offloadable_names()
                for _ in range(20):
                    cloud = frozenset(
                        n for n in names if rng.uniform(0.0, 1.0) < 0.5
                    )
                    expected = not any(
                        n not in cloud
                        and reach(n, app.predecessors) & cloud
                        and reach(n, app.successors) & cloud
                        for n in app.component_names
                    )
                    partition = Partition(app.name, cloud)
                    assert is_phase_shaped(app, partition) is expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_runner_rejects_non_phase_shaped(self):
        app = AppGraph(
            "sandwich",
            [Component("a"), Component("b"), Component("c")],
            [DataFlow("a", "b"), DataFlow("b", "c")],
        )
        env = Environment.build(seed=0)
        with pytest.raises(ValueError, match="phase-shaped"):
            WorkflowOffloadRunner(
                env, app, Partition("sandwich", frozenset({"a", "c"}))
            )


class TestWorkflowRunner:
    def make_runner(self, seed=1, app=None, partition=None):
        env = Environment.build(seed=seed)
        app = app or nightly_analytics_app()
        partition = partition or Partition.full_offload(app)
        return env, WorkflowOffloadRunner(env, app, partition)

    def test_job_completes_with_dag_order(self):
        env, runner = self.make_runner()
        report = runner.run_workload(
            [Job(runner.app, input_mb=4.0, deadline=3600.0)]
        )
        assert report.jobs_completed == 1
        finish = report.results[0].component_finish_times
        assert set(finish) == set(runner.app.component_names)
        for flow in runner.app.flows:
            assert finish[flow.src] <= finish[flow.dst]

    def test_orchestration_cost_charged(self):
        env, runner = self.make_runner()
        report = runner.run_workload(
            [Job(runner.app, input_mb=4.0, deadline=3600.0)]
        )
        result = report.results[0]
        assert result.cloud_cost_usd > env.platform.total_cost  # + transitions
        assert runner.engine.total_orchestration_cost > 0

    def test_deep_sleep_saves_energy_vs_controller(self):
        """The workflow runner's UE energy is lower than the controller's
        for the same partition: deep sleep beats awake-idle coordination."""
        app = nightly_analytics_app()
        partition = Partition.full_offload(app)

        env_wf, runner = self.make_runner(seed=9, app=app, partition=partition)
        wf_report = runner.run_workload([Job(app, input_mb=8.0, deadline=7200.0)])

        env_ctl = Environment.build(seed=9)
        controller = OffloadController(
            env_ctl, nightly_analytics_app(),
            partitioner=FixedPartitioner(partition),
        )
        controller.profile_offline()
        controller.plan(input_mb=8.0)
        ctl_report = controller.run_workload(
            [Job(controller.app, input_mb=8.0, deadline=7200.0)]
        )
        assert (
            wf_report.results[0].ue_energy_j < ctl_report.results[0].ue_energy_j
        )
        # ...but pays orchestration dollars the controller does not.
        assert (
            wf_report.results[0].cloud_cost_usd
            > ctl_report.results[0].cloud_cost_usd
        )

    def test_local_only_partition_runs_without_engine(self):
        app = nightly_analytics_app()
        env, runner = self.make_runner(
            seed=2, app=app, partition=Partition.local_only(app)
        )
        report = runner.run_workload([Job(app, input_mb=2.0)])
        assert report.jobs_completed == 1
        assert report.results[0].cloud_cost_usd == 0.0
        assert len(runner.engine.executions) == 0

    def test_memory_plan_applied(self):
        app = nightly_analytics_app()
        env = Environment.build(seed=3)
        runner = WorkflowOffloadRunner(
            env, app, Partition.full_offload(app),
            memory_plan={"aggregate": 4096.0},
        )
        assert env.platform.spec("wf.nightly_analytics.aggregate").memory_mb == 4096.0

    def test_foreign_job_rejected(self):
        env, runner = self.make_runner()
        with pytest.raises(ValueError):
            runner.submit(Job(photo_backup_app()))

    def test_multiple_jobs(self):
        env, runner = self.make_runner(seed=4)
        jobs = [
            Job(runner.app, input_mb=3.0, released_at=60.0 * i, deadline=60.0 * i + 3600)
            for i in range(4)
        ]
        report = runner.run_workload(jobs)
        assert report.jobs_completed == 4
        assert len(runner.engine.executions) == 4
