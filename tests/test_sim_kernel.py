"""Unit tests for the simulation kernel (Simulator, Process)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Interrupt, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start(self):
        assert Simulator(start=100.0).now == 100.0

    def test_run_until_time_advances_clock(self, sim):
        sim.timeout(3.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_rejected(self, sim):
        sim.timeout(1.0)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)

    def test_events_processed_counts(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2


class TestProcess:
    def test_return_value_via_run(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        process = sim.spawn(proc(sim))
        assert sim.run(until=process) == "done"

    def test_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(TypeError):
            sim.spawn(not_a_generator)  # type: ignore[arg-type]

    def test_spawn_does_not_run_user_code_synchronously(self, sim):
        order = []

        def proc(sim):
            order.append("ran")
            yield sim.timeout(0)

        sim.spawn(proc(sim))
        assert order == []
        sim.run()
        assert order == ["ran"]

    def test_process_failure_propagates_to_run(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise KeyError("missing")

        process = sim.spawn(proc(sim))
        with pytest.raises(KeyError):
            sim.run(until=process)

    def test_join_another_process(self, sim):
        def worker(sim):
            yield sim.timeout(4.0)
            return 99

        def parent(sim):
            worker_process = sim.spawn(worker(sim))
            value = yield worker_process
            return (sim.now, value)

        process = sim.spawn(parent(sim))
        assert sim.run(until=process) == (4.0, 99)

    def test_join_already_finished_process(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            return "early"

        worker_process = sim.spawn(worker(sim))
        sim.run()

        def late_joiner(sim):
            value = yield worker_process
            return value

        process = sim.spawn(late_joiner(sim))
        assert sim.run(until=process) == "early"

    def test_yield_non_event_is_error(self, sim):
        def proc(sim):
            yield 42  # type: ignore[misc]

        process = sim.spawn(proc(sim))
        with pytest.raises(SimulationError):
            sim.run(until=process)

    def test_failed_dependency_raises_inside_process(self, sim):
        def failer(sim):
            yield sim.timeout(1.0)
            raise ValueError("inner")

        caught = []

        def waiter(sim, target):
            try:
                yield target
            except ValueError as error:
                caught.append(str(error))
            return "survived"

        target = sim.spawn(failer(sim))
        process = sim.spawn(waiter(sim, target))
        assert sim.run(until=process) == "survived"
        assert caught == ["inner"]

    def test_deadlock_detected(self, sim):
        def stuck(sim):
            yield sim.event()  # nobody will ever trigger this

        process = sim.spawn(stuck(sim))
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=process)


class TestInterruption:
    def test_interrupt_wakes_sleeper(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        def killer(sim, victim):
            yield sim.timeout(2.0)
            victim.interrupt("no more")

        victim = sim.spawn(sleeper(sim))
        sim.spawn(killer(sim, victim))
        sim.run()
        assert log == [(2.0, "no more")]

    def test_interrupted_process_can_continue(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            return sim.now

        def killer(sim, victim):
            yield sim.timeout(5.0)
            victim.interrupt()

        victim = sim.spawn(sleeper(sim))
        sim.spawn(killer(sim, victim))
        assert sim.run(until=victim) == 6.0

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)

        process = sim.spawn(quick(sim))
        sim.run()
        process.interrupt("late")  # must not raise
        sim.run()

    def test_stale_event_does_not_double_resume(self, sim):
        """After an interrupt, the original wait target firing later must
        not resume the process a second time."""
        resumes = []

        def sleeper(sim):
            try:
                yield sim.timeout(10.0)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield sim.timeout(20.0)
            resumes.append("after")

        def killer(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        victim = sim.spawn(sleeper(sim))
        sim.spawn(killer(sim, victim))
        sim.run()
        assert resumes == ["interrupt", "after"]


class TestInterruptRelayRace:
    """Regression: exactly-once delivery when an interrupt races the
    relay of an already-processed wait target.

    Pre-fix, ``_wait_on`` on a processed event set ``_waiting_on = None``
    before the relay fired, so ``interrupt()`` could not detach the relay
    callback — the process received the ``Interrupt`` and then had the
    stale original outcome delivered *again* at its next yield point.
    """

    def test_interrupt_on_processed_failed_event_delivers_once(self, sim):
        failed = sim.event()
        failed.fail(RuntimeError("original"))
        sim.run()

        deliveries = []

        def waiter(sim):
            try:
                yield failed
                deliveries.append("value")
            except Interrupt:
                deliveries.append("interrupt")
            except RuntimeError:
                deliveries.append("original")
            try:
                yield sim.timeout(5.0)
                deliveries.append("timeout-ok")
            except BaseException as error:  # noqa: BLE001
                deliveries.append(f"stale:{type(error).__name__}")

        process = sim.spawn(waiter(sim))
        process.interrupt("cancel")
        sim.run()
        assert deliveries == ["interrupt", "timeout-ok"]

    def test_interrupt_on_processed_succeeded_event_delivers_once(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()

        deliveries = []

        def waiter(sim):
            try:
                value = yield done
                deliveries.append(("value", value))
            except Interrupt:
                deliveries.append("interrupt")
            got = yield sim.timeout(5.0, "tick")
            deliveries.append(("timeout", got, sim.now))

        process = sim.spawn(waiter(sim))
        process.interrupt()
        sim.run()
        assert deliveries == ["interrupt", ("timeout", "tick", 5.0)]

    def test_uninterrupted_processed_failure_still_delivered(self, sim):
        failed = sim.event()
        failed.fail(RuntimeError("original"))
        sim.run()

        caught = []

        def waiter(sim):
            try:
                yield failed
            except RuntimeError as error:
                caught.append(str(error))
            return "survived"

        process = sim.spawn(waiter(sim))
        assert sim.run(until=process) == "survived"
        assert caught == ["original"]


class TestInterruptDeliveryProperty:
    """Property: whatever the interrupt races against, every exception is
    delivered into the process exactly once and the heap drains clean."""

    @given(
        kind=st.sampled_from(
            ["timeout", "processed_ok", "processed_fail", "never"]
        ),
        immediate=st.booleans(),
        interrupt_delay=st.floats(
            min_value=0.0, max_value=8.0,
            allow_nan=False, allow_infinity=False,
        ),
        wait_delay=st.floats(
            min_value=0.0, max_value=6.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    def test_exactly_once_delivery(
        self, kind, immediate, interrupt_delay, wait_delay
    ):
        sim = Simulator()
        deliveries = []

        if kind == "processed_ok":
            target = sim.event()
            target.succeed("early")
            sim.run()
        elif kind == "processed_fail":
            target = sim.event()
            target.fail(RuntimeError("boom"))
            sim.run()
        elif kind == "never":
            target = sim.event()  # only the interrupt can free the waiter
        else:
            target = sim.timeout(wait_delay)

        def victim(sim):
            try:
                yield target
                deliveries.append("first-ok")
            except Interrupt:
                deliveries.append("first-interrupt")
            except RuntimeError:
                deliveries.append("first-fail")
            try:
                yield sim.timeout(3.0)
                deliveries.append("second-ok")
            except Interrupt:
                deliveries.append("second-interrupt")
            except RuntimeError:
                deliveries.append("second-fail")

        process = sim.spawn(victim(sim))
        if immediate:
            process.interrupt("now")
        else:

            def killer(sim):
                yield sim.timeout(interrupt_delay)
                process.interrupt("later")

            sim.spawn(killer(sim))
        sim.run()

        # Exactly one delivery per stage, never a stale second one.
        assert len(deliveries) == 2, deliveries
        assert deliveries[0].startswith("first-")
        assert deliveries[1].startswith("second-")
        # One interrupt was issued, so at most one can be delivered.
        assert deliveries.count("first-interrupt") + deliveries.count(
            "second-interrupt"
        ) <= 1
        # The target's failure can reach the process at most once, and
        # never at the second yield point (that would be the stale relay).
        assert deliveries.count("first-fail") <= 1
        assert "second-fail" not in deliveries
        # Heap consistency: the run drained every scheduled event and the
        # event counter is stable (no orphan callbacks left behind).
        assert not sim._fast and not sim._heap
        assert not process.is_alive
        processed = sim.events_processed
        assert processed > 0
        sim.run()
        assert sim.events_processed == processed


class TestDeterminism:
    def test_same_timestamp_fifo_order(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_identical_runs_identical_traces(self):
        def trace_run():
            sim = Simulator()
            log = []

            def proc(sim, tag, delay):
                yield sim.timeout(delay)
                log.append((sim.now, tag))
                yield sim.timeout(delay)
                log.append((sim.now, tag))

            for i, delay in enumerate((2.0, 1.0, 3.0)):
                sim.spawn(proc(sim, f"p{i}", delay))
            sim.run()
            return log

        assert trace_run() == trace_run()


class TestCallAt:
    def test_runs_at_absolute_time(self, sim):
        seen = []
        sim.call_at(6.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [6.0]

    def test_past_time_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)


class TestRunUntilEvent:
    """``run(until=event)`` stops through a callback on the target."""

    def test_callbacks_added_during_run_fire_in_order_before_return(self, sim):
        target = sim.event()
        order = []
        target.callbacks.append(lambda _: order.append("before"))

        def proc():
            yield sim.timeout(1.0)
            target.callbacks.append(lambda _: order.append("during-1"))
            target.callbacks.append(lambda _: order.append("during-2"))
            target.succeed("value")
            later = sim.event()
            later.callbacks.append(lambda _: order.append("later"))
            later.succeed()

        sim.spawn(proc())
        assert sim.run(until=target) == "value"
        # Everything registered on the target ran; the event queued
        # behind it did not.
        assert order == ["before", "during-1", "during-2"]
        sim.run()
        assert order[-1] == "later"

    def test_deadlock_removes_the_stop_callback(self, sim):
        target = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=target)
        assert target.callbacks == []
        target.succeed("late")
        assert sim.run(until=target) == "late"

    def test_callback_exception_removes_the_stop_callback(self, sim):
        target = sim.event()

        def boom(_):
            raise ValueError("boom")

        trigger = sim.event()
        trigger.callbacks.append(boom)
        trigger.succeed()
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=target)
        assert target.callbacks == []
        target.succeed("after")
        assert sim.run(until=target) == "after"

    def test_nested_run_does_not_swallow_outer_stop(self, sim):
        outer, inner = sim.event(), sim.event()
        sim.call_at(5.0, lambda: inner.succeed("inner"))
        returned = []

        def nested(_):
            outer.succeed("outer")
            sim.run(until=inner)
            returned.append("nested")

        kick = sim.event()
        kick.callbacks.append(nested)
        kick.succeed()
        assert sim.run(until=outer) == "outer"
        # The outer target fired inside the nested run, which unwound
        # without advancing the clock and without leaving its stop behind.
        assert returned == []
        assert sim.now == 0.0
        assert inner.callbacks == []
        assert sim.run(until=inner) == "inner"
        assert sim.now == 5.0

    def test_nested_run_on_the_same_target_stops_with_the_outer(self, sim):
        target = sim.event()
        seen = []
        returned = []

        def nested(_):
            target.callbacks.append(lambda _: seen.append("registered"))
            target.succeed("value")
            sim.run(until=target)
            returned.append("nested")

        kick = sim.event()
        kick.callbacks.append(nested)
        kick.succeed()
        assert sim.run(until=target) == "value"
        assert seen == ["registered"]
        assert returned == []

    def test_already_processed_target_returns_at_once(self, sim):
        done = sim.event().succeed("done")
        failed = sim.event().fail(KeyError("gone"))
        sim.run()
        sim.timeout(1.0)
        before = sim.events_processed
        assert sim.run(until=done) == "done"
        with pytest.raises(KeyError):
            sim.run(until=failed)
        assert sim.events_processed == before
        assert sim.now == 0.0
