"""Tests for the edge-node baseline substrate."""

import pytest

from repro.edge import EdgeNode, EdgeNodeSpec
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEdgeNodeSpec:
    def test_execution_time(self):
        spec = EdgeNodeSpec(cycles_per_second=3.0e9)
        assert spec.execution_time(6.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeNodeSpec(cycles_per_second=0.0)
        with pytest.raises(ValueError):
            EdgeNodeSpec(cores=0)
        with pytest.raises(ValueError):
            EdgeNodeSpec(hourly_cost_usd=-0.1)
        with pytest.raises(ValueError):
            EdgeNodeSpec().execution_time(-1.0)


class TestExecution:
    def test_single_job(self, sim):
        node = EdgeNode(sim, EdgeNodeSpec(cycles_per_second=3.0e9, cores=1))
        record = sim.run(until=node.execute(6.0))
        assert record.latency == pytest.approx(2.0)
        assert record.queue_delay == 0.0

    def test_queueing_beyond_cores(self, sim):
        node = EdgeNode(sim, EdgeNodeSpec(cycles_per_second=3.0e9, cores=1))
        events = [node.execute(3.0) for _ in range(2)]

        def join(sim):
            got = yield sim.all_of(events)
            return sorted(r.finished_at for r in got.values())

        finishes = sim.run(until=sim.spawn(join(sim)))
        assert finishes == pytest.approx([1.0, 2.0])

    def test_estimate_matches(self, sim):
        node = EdgeNode(sim)
        estimate = node.estimate_execution_time(9.0)
        record = sim.run(until=node.execute(9.0))
        assert record.latency == pytest.approx(estimate)

    def test_executions_recorded(self, sim):
        node = EdgeNode(sim)
        sim.run(until=node.execute(3.0))
        assert len(node.executions) == 1


class TestExecuteBody:
    def test_delegated_body_matches_spawned_execution(self):
        """Delegating into ``execute_body`` from a caller's process and
        spawning ``execute`` record the same executions, contention
        included, and the same utilisation."""

        def run(delegate):
            sim = Simulator()
            node = EdgeNode(sim, EdgeNodeSpec(cycles_per_second=3.0e9, cores=2))

            def caller(work, delay):
                yield sim.timeout(delay)
                if delegate:
                    record = yield from node.execute_body(work)
                else:
                    record = yield node.execute(work)
                return record

            callers = [
                sim.spawn(caller(work, delay))
                for work, delay in ((6.0, 0.0), (3.0, 0.5), (9.0, 0.5), (1.5, 1.0))
            ]
            got = sim.run(until=sim.all_of(callers))
            sim.timeout(30.0 - sim.now)
            sim.run()
            return [got[c] for c in callers], node.executions, node.utilisation()

        delegated, spawned = run(True), run(False)
        assert delegated == spawned
        records, _, _ = delegated
        assert any(record.queue_delay > 0 for record in records)


class TestAccounting:
    def test_provisioned_cost_accrues_with_wall_time(self, sim):
        node = EdgeNode(sim, EdgeNodeSpec(hourly_cost_usd=0.36))
        sim.timeout(7200.0)
        sim.run()
        assert node.provisioned_cost() == pytest.approx(0.72)

    def test_cost_independent_of_usage(self, sim):
        """The structural difference from serverless: idle time still bills."""
        busy = EdgeNode(sim, EdgeNodeSpec(hourly_cost_usd=0.36))
        sim.run(until=busy.execute(30.0))
        sim.timeout(3600.0 - sim.now)
        sim.run()
        idle_cost = EdgeNodeSpec(hourly_cost_usd=0.36).hourly_cost_usd
        assert busy.provisioned_cost() == pytest.approx(idle_cost)

    def test_cost_end_before_start_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        node = EdgeNode(sim)
        with pytest.raises(ValueError):
            node.provisioned_cost(until=5.0)

    def test_utilisation(self, sim):
        node = EdgeNode(sim, EdgeNodeSpec(cycles_per_second=3.0e9, cores=2))
        sim.run(until=node.execute(30.0))  # 10 busy core-seconds
        assert sim.now == pytest.approx(10.0)
        # 10 busy core-seconds over 10 s * 2 cores = 50%.
        assert node.utilisation() == pytest.approx(0.5)

    def test_utilisation_zero_at_start(self, sim):
        assert EdgeNode(sim).utilisation() == 0.0
