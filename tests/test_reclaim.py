"""A finished world frees itself: no run leaves cyclic garbage.

Each simulated world (simulator, processes, controllers, tracer,
monitor) must be freed by reference counting when its run returns, so
a fleet's groups never wait for a gen-2 collection to give back their
memory.  :func:`cyclic_garbage` counts what the collector would have to
find after a workload, and :func:`describe_cycles` names the types on
each cycle when the count is not zero.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from typing import Any, Callable, List

import pytest

from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.telemetry.tracer import NULL_TRACER, Tracer


def cyclic_garbage(workload: Callable[[], Any]) -> List[Any]:
    """Every object ``workload`` left that only the collector can free.

    Runs ``workload`` once to warm imports and memos, then again with
    the collector off and ``DEBUG_SAVEALL`` on, and returns what one
    ``gc.collect()`` then finds.  The collector's settings are restored
    before returning.
    """
    workload()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def describe_cycles(garbage: List[Any]) -> str:
    """The type census of each distinct cycle in ``garbage``.

    Finds the strongly connected components of the reference graph
    among the garbage objects (an object that refers to itself counts
    as a cycle) and lists the ten most frequent component shapes.
    """
    index = {id(obj): i for i, obj in enumerate(garbage)}
    edges = [
        [index[id(ref)] for ref in gc.get_referents(obj) if id(ref) in index]
        for obj in garbage
    ]
    order: List[Any] = [None] * len(garbage)
    low = [0] * len(garbage)
    on_stack = [False] * len(garbage)
    stack: List[int] = []
    shapes: Counter = Counter()
    counter = 0
    for root in range(len(garbage)):
        if order[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            node, next_edge = work.pop()
            if next_edge == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            for position in range(next_edge, len(edges[node])):
                child = edges[node][position]
                if order[child] is None:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    break
                if on_stack[child]:
                    low[node] = min(low[node], order[child])
            else:
                if low[node] == order[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges[node]:
                        census = Counter(
                            type(garbage[m]).__name__ for m in component
                        )
                        shapes[tuple(sorted(census.items()))] += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    lines = [f"{len(garbage)} objects, {sum(shapes.values())} cycles"]
    for shape, count in shapes.most_common(10):
        lines.append(f"{count} x " + ", ".join(f"{n} {t}" for t, n in shape))
    return "\n".join(lines)


def assert_no_cyclic_garbage(workload: Callable[[], Any]) -> None:
    garbage = cyclic_garbage(workload)
    assert not garbage, describe_cycles(garbage)


class TestWorkloads:
    def test_offload_run_leaves_no_cycles(self):
        from repro.sweep.scenarios import offload_run

        assert_no_cyclic_garbage(
            lambda: offload_run({"jobs": 20, "seed": 0})
        )

    def test_remediated_fleet_leaves_no_cycles(self):
        from repro.testing.golden import run_golden_fleet

        assert_no_cyclic_garbage(lambda: run_golden_fleet("pairs", True))

    def test_traced_golden_pipeline_leaves_no_cycles(self):
        from repro.testing.golden import run_golden_scenario

        assert_no_cyclic_garbage(
            lambda: run_golden_scenario(with_faults=False, traced=True)
        )

    def test_traced_faulted_golden_pipeline_leaves_no_cycles(self):
        """Failed attempts, exhausted retries and hedge lanes: the errors
        they relay keep no traceback that ties their processes into a
        cycle."""
        from repro.testing.golden import run_golden_scenario

        assert_no_cyclic_garbage(
            lambda: run_golden_scenario(with_faults=True, traced=True)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_failed_jobs_leave_no_cycles(self, seed):
        """Failed jobs record errors without tracebacks, release the units
        left waiting on a component that will never finish, and a job's
        join lets go of a sibling still in flight when the run stops.
        The workload closes its simulator, as a fleet group does."""
        from repro.core.controller import Environment
        from repro.serverless.platform import PlatformConfig
        from repro.sweep.scenarios import offload_setup

        failures = []

        def workload():
            env = Environment.build(
                seed=seed,
                platform_config=PlatformConfig(failure_probability=0.5),
            )
            controller, jobs = offload_setup(env, {"jobs": 10})
            failures.append(len(controller.run_workload(jobs).failures))
            env.sim.close()

        assert_no_cyclic_garbage(workload)
        assert failures[-1] > 0


class TestRoots:
    def test_a_granted_request_is_not_its_own_value(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        first, second = cpu.request(), cpu.request()
        sim.run()
        assert first.value is None
        cpu.release(first)
        sim.run()
        assert second.value is None

    def test_contended_requests_leave_no_cycles(self):
        def workload():
            sim = Simulator()
            cpu = Resource(sim, capacity=1)

            def user():
                with cpu.request() as request:
                    yield request
                    yield sim.timeout(1.0)

            for _ in range(3):
                sim.spawn(user())
            sim.run()

        assert_no_cyclic_garbage(workload)

    def test_run_until_an_event_leaves_no_stop_cycle(self):
        def workload():
            sim = Simulator()
            target = sim.timeout(1.0)
            sim.run(until=target)

        assert_no_cyclic_garbage(workload)

    def test_nested_runs_on_one_target_leave_no_stop_cycle(self):
        def workload():
            sim = Simulator()
            target = sim.timeout(2.0)

            def inner(_event):
                sim.run(until=target)

            sim.timeout(1.0).callbacks.append(inner)
            sim.run(until=target)

        assert_no_cyclic_garbage(workload)

    def test_a_failed_process_leaves_no_cycle(self):
        """One process raises, one catches while holding its handle: the
        error keeps the frames it was raised through and no other."""
        caught = []

        def workload():
            sim = Simulator()

            def failing():
                yield sim.timeout(1.0)
                raise ValueError("boom")

            def catcher(process):
                try:
                    yield process
                except ValueError as error:
                    caught.append(error)

            sim.spawn(catcher(sim.spawn(failing())))
            sim.run()

        assert_no_cyclic_garbage(workload)
        frames, tb = [], caught[-1].__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert frames == ["failing"]

    def test_a_remediation_engine_does_not_hold_its_slo_engine(self):
        from repro.remediate import ControllerActuator, RemediationEngine

        class Engine:
            eval_interval_s = 30.0

            def __init__(self):
                self.listeners = []

            def subscribe(self, listener):
                self.listeners.append(listener)

        assert_no_cyclic_garbage(
            lambda: RemediationEngine(Engine(), ControllerActuator([object()]))
        )


class TestClose:
    def test_close_is_idempotent(self):
        sim = Simulator()
        sim.tracer = Tracer(sim)

        def pump():
            while True:
                yield sim.timeout(10.0)

        sim.spawn(pump())
        sim.run(until=25.0)
        events = sim.events_processed
        sim.close()
        sim.close()
        assert (sim.now, sim.events_processed) == (25.0, events)
        assert sim.tracer is NULL_TRACER
        assert not sim._heap and not sim._fast
        sim.run()  # nothing is left to run
        assert sim.now == 25.0

    def test_close_frees_a_world_with_pending_events(self):
        def workload():
            sim = Simulator()
            sim.tracer = Tracer(sim)

            def pump():
                while True:
                    yield sim.timeout(10.0)

            race = sim.any_of([sim.timeout(1.0), sim.timeout(50.0)])
            sim.spawn(pump())
            sim.run(until=race)
            sim.close()

        assert_no_cyclic_garbage(workload)

    def test_close_runs_a_suspended_generator_finally_exactly_once(
        self, monkeypatch
    ):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        exits, finals = [], []

        def holder():
            with cpu.request() as request:
                yield request
                try:
                    yield sim.timeout(100.0)
                except GeneratorExit:
                    exits.append(sim.now)
                    raise
                finally:
                    finals.append(sim.now)

        def waiter():
            with cpu.request() as request:
                yield request
                exits.append("waiter granted")  # pragma: no cover

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=5.0)
        sim.close()
        # The holder's release granted the waiter's request during the
        # teardown; close dropped that grant too, which freed (and so
        # closed) the waiter, whose ``with`` released its slot.
        assert exits == finals == [5.0]
        assert not sim._heap and not sim._fast
        assert cpu.in_use == 0 and cpu.queue_length == 0
        del sim, cpu
        gc.collect()
        assert exits == finals == [5.0]
        assert unraisable == []


def test_helper_counts_a_planted_cycle():
    """The guard bites: a planted self-reference is found and named."""

    class Planted:
        pass

    def workload():
        node = Planted()
        node.self = node

    garbage = cyclic_garbage(workload)
    assert any(type(obj).__name__ == "Planted" for obj in garbage)
    assert "Planted" in describe_cycles(garbage)
