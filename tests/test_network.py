"""Tests for network links, paths, and connectivity profiles."""

import pytest

from repro.network import (
    CONNECTIVITY_PROFILES,
    Link,
    NetworkPath,
    cloud_path,
    edge_path,
    profile,
)
from repro.sim import Simulator
from repro.traces import StepBandwidth


@pytest.fixture
def sim():
    return Simulator()


class TestLink:
    def test_transfer_duration(self, sim):
        link = Link(sim, bandwidth=100.0, latency_s=1.0)
        process = sim.spawn(link.transfer(500.0))
        result = sim.run(until=process)
        assert result.duration == pytest.approx(6.0)  # 5 s serialization + 1 s

    def test_per_request_overhead(self, sim):
        link = Link(sim, bandwidth=100.0, per_request_overhead_bytes=100.0)
        process = sim.spawn(link.transfer(100.0))
        result = sim.run(until=process)
        assert result.duration == pytest.approx(2.0)

    def test_zero_bytes_costs_latency_and_overhead(self, sim):
        link = Link(sim, bandwidth=100.0, latency_s=0.5)
        process = sim.spawn(link.transfer(0.0))
        result = sim.run(until=process)
        assert result.duration == pytest.approx(0.5)

    def test_negative_bytes_rejected(self, sim):
        link = Link(sim, bandwidth=100.0)
        with pytest.raises(ValueError):
            next(link.transfer(-1.0))

    def test_contention_serialises_transfers(self, sim):
        link = Link(sim, bandwidth=100.0, channels=1)
        p1 = sim.spawn(link.transfer(500.0))
        p2 = sim.spawn(link.transfer(500.0))
        r1 = None

        def collect(sim):
            nonlocal r1
            r1 = yield p1
            return (yield p2)

        r2 = sim.run(until=sim.spawn(collect(sim)))
        assert r1.finished_at == pytest.approx(5.0)
        assert r2.finished_at == pytest.approx(10.0)
        assert r2.duration == pytest.approx(10.0)  # includes queueing

    def test_multiple_channels_parallel(self, sim):
        link = Link(sim, bandwidth=100.0, channels=2)
        p1 = sim.spawn(link.transfer(500.0))
        p2 = sim.spawn(link.transfer(500.0))

        def collect(sim):
            a = yield p1
            b = yield p2
            return a, b

        a, b = sim.run(until=sim.spawn(collect(sim)))
        assert a.finished_at == pytest.approx(5.0)
        assert b.finished_at == pytest.approx(5.0)

    def test_time_varying_bandwidth(self, sim):
        trace = StepBandwidth([(0.0, 100.0), (5.0, 50.0)])
        link = Link(sim, bandwidth=trace)
        process = sim.spawn(link.transfer(750.0))
        result = sim.run(until=process)
        # 500 B in 5 s at 100 B/s, 250 B in 5 s at 50 B/s.
        assert result.duration == pytest.approx(10.0)

    def test_estimate_matches_uncontended_transfer(self, sim):
        link = Link(sim, bandwidth=200.0, latency_s=0.25,
                    per_request_overhead_bytes=50.0)
        estimate = link.estimate_transfer_time(350.0)
        process = sim.spawn(link.transfer(350.0))
        result = sim.run(until=process)
        assert result.duration == pytest.approx(estimate)

    def test_metrics_recorded(self, sim):
        link = Link(sim, bandwidth=100.0, name="up")
        sim.run(until=sim.spawn(link.transfer(100.0)))
        assert link.metrics.counter("up.transfers").value == 1
        assert link.metrics.counter("up.bytes").value == 100.0

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Link(sim, bandwidth=100.0, latency_s=-1.0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth=100.0, per_request_overhead_bytes=-1.0)


class TestNetworkPath:
    def test_requires_links(self, sim):
        with pytest.raises(ValueError):
            NetworkPath(sim, [])

    def test_store_and_forward_sum(self, sim):
        a = Link(sim, bandwidth=100.0, latency_s=1.0)
        b = Link(sim, bandwidth=50.0, latency_s=2.0)
        path = NetworkPath(sim, [a, b])
        process = sim.spawn(path.transfer(100.0))
        result = sim.run(until=process)
        # 1 + 1 + 2 + 2 = 6 s.
        assert result.duration == pytest.approx(6.0)
        assert path.total_latency_s == pytest.approx(3.0)

    def test_bottleneck_rate(self, sim):
        a = Link(sim, bandwidth=100.0)
        b = Link(sim, bandwidth=30.0)
        path = NetworkPath(sim, [a, b])
        assert path.bottleneck_rate() == 30.0

    def test_estimate_close_to_actual(self, sim):
        a = Link(sim, bandwidth=100.0, latency_s=0.5)
        b = Link(sim, bandwidth=80.0, latency_s=0.1)
        path = NetworkPath(sim, [a, b])
        estimate = path.estimate_transfer_time(400.0)
        result = sim.run(until=sim.spawn(path.transfer(400.0)))
        assert result.duration == pytest.approx(estimate)


class TestProfiles:
    def test_all_presets_resolve(self):
        for name in CONNECTIVITY_PROFILES:
            assert profile(name).name == name

    def test_lookup_case_insensitive(self):
        assert profile("WiFi").name == "wifi"

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            profile("carrier-pigeon")

    def test_technology_ordering(self):
        """Faster generations have more bandwidth and less latency."""
        g3, g4, g5 = profile("3g"), profile("4g"), profile("5g")
        assert g3.uplink_bps < g4.uplink_bps < g5.uplink_bps
        assert g3.access_latency_s > g4.access_latency_s > g5.access_latency_s

    def test_cloud_path_structure(self, sim):
        path = cloud_path(sim, "4g")
        assert len(path.links) == 2  # access + WAN

    def test_edge_path_lower_latency(self, sim):
        cloud = cloud_path(sim, "4g")
        edge = edge_path(sim, "4g")
        assert edge.total_latency_s < cloud.total_latency_s

    def test_downlink_faster_than_uplink(self, sim):
        up = cloud_path(sim, "4g", uplink=True)
        down = cloud_path(sim, "4g", uplink=False)
        assert down.bottleneck_rate() > up.bottleneck_rate()

    def test_cloud_transfer_runs(self, sim):
        path = cloud_path(sim, "wifi")
        result = sim.run(until=sim.spawn(path.transfer(1_000_000.0)))
        assert result.duration > 0
