"""Unit tests for sim resources (Resource, Container)."""

import pytest

from repro.sim import Container, Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        r1, r2, r3 = resource.request(), resource.request(), resource.request()
        assert r1.triggered and r2.triggered
        assert not r3.triggered
        assert resource.in_use == 2
        assert resource.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(sim, tag):
            request = resource.request()
            yield request
            order.append((tag, sim.now))
            yield sim.timeout(1.0)
            resource.release(request)

        for tag in ("a", "b", "c"):
            sim.spawn(worker(sim, tag))
        sim.run()
        assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]

    def test_release_queued_request_cancels_it(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        queued = resource.request()
        resource.release(queued)  # cancel
        assert resource.queue_length == 0
        resource.release(held)
        assert resource.in_use == 0

    def test_release_unknown_request_rejected(self, sim):
        r1 = Resource(sim, capacity=1)
        r2 = Resource(sim, capacity=1)
        request = r1.request()
        with pytest.raises(RuntimeError):
            r2.release(request)

    def test_context_manager_releases(self, sim):
        resource = Resource(sim, capacity=1)

        def worker(sim):
            with resource.request() as request:
                yield request
                yield sim.timeout(1.0)
            return resource.in_use

        process = sim.spawn(worker(sim))
        assert sim.run(until=process) == 0


class TestContainer:
    def test_initial_level(self, sim):
        container = Container(sim, capacity=10.0, init=4.0)
        assert container.level == 4.0

    def test_init_validation(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=5.0, init=6.0)

    def test_get_blocks_until_enough(self, sim):
        container = Container(sim, capacity=10.0, init=1.0)
        events = []

        def taker(sim):
            yield container.get(5.0)
            events.append(sim.now)

        def filler(sim):
            yield sim.timeout(2.0)
            yield container.put(4.0)

        sim.spawn(taker(sim))
        sim.spawn(filler(sim))
        sim.run()
        assert events == [2.0]
        assert container.level == 0.0

    def test_put_blocks_when_overful(self, sim):
        container = Container(sim, capacity=5.0, init=4.0)
        events = []

        def putter(sim):
            yield container.put(3.0)
            events.append(sim.now)

        def drainer(sim):
            yield sim.timeout(1.0)
            yield container.get(2.0)

        sim.spawn(putter(sim))
        sim.spawn(drainer(sim))
        sim.run()
        assert events == [1.0]
        assert container.level == 5.0

    def test_get_more_than_capacity_rejected(self, sim):
        container = Container(sim, capacity=5.0)
        with pytest.raises(ValueError):
            container.get(6.0)

    def test_negative_amounts_rejected(self, sim):
        container = Container(sim, capacity=5.0)
        with pytest.raises(ValueError):
            container.put(-1.0)
        with pytest.raises(ValueError):
            container.get(-1.0)
