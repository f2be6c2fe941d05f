"""Tests for the UE model: CPU, energy, battery, radio."""

import pytest

from repro.device import DeviceSpec, EnergyModel, UserEquipment
from repro.device.ue import BatteryDepleted
from repro.network import Link, NetworkPath
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_ue(sim, **spec_kwargs):
    defaults = dict(cycles_per_second=1.0e9, cores=2, battery_capacity_j=100.0)
    defaults.update(spec_kwargs)
    return UserEquipment(sim, DeviceSpec(**defaults))


class TestEnergyModel:
    def test_energy_is_power_times_time(self):
        model = EnergyModel(compute_w=2.0, transmit_w=3.0, receive_w=1.5, idle_w=0.1)
        assert model.compute_energy(4.0) == pytest.approx(8.0)
        assert model.transmit_energy(2.0) == pytest.approx(6.0)
        assert model.receive_energy(2.0) == pytest.approx(3.0)
        assert model.idle_energy(10.0) == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().compute_energy(-1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(compute_w=-1.0)

    def test_radio_costs_more_than_compute_by_default(self):
        model = EnergyModel()
        assert model.transmit_w > model.compute_w > model.idle_w


class TestDeviceSpec:
    def test_execution_time(self):
        spec = DeviceSpec(cycles_per_second=2.0e9)
        assert spec.execution_time(4.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(cycles_per_second=0.0)
        with pytest.raises(ValueError):
            DeviceSpec(cores=0)
        with pytest.raises(ValueError):
            DeviceSpec(battery_capacity_j=0.0)
        with pytest.raises(ValueError):
            DeviceSpec().execution_time(-1.0)


class TestExecution:
    def test_single_execution(self, sim):
        ue = make_ue(sim)
        # 2 gcycles at 1 GHz = 2 s
        record = sim.run(until=sim.spawn(ue.execute_body(2.0)))
        assert record.latency == pytest.approx(2.0)
        assert record.energy_j == pytest.approx(0.9 * 2.0)

    def test_cores_limit_parallelism(self, sim):
        ue = make_ue(sim, cores=2)
        events = [sim.spawn(ue.execute_body(1.0)) for _ in range(3)]

        def join(sim):
            got = yield sim.all_of(events)
            return sorted(r.finished_at for r in got.values())

        finishes = sim.run(until=sim.spawn(join(sim)))
        assert finishes == pytest.approx([1.0, 1.0, 2.0])

    def test_estimates_match_execution(self, sim):
        ue = make_ue(sim)
        estimate_t = ue.estimate_execution_time(3.0)
        estimate_e = ue.estimate_execution_energy(3.0)
        record = sim.run(until=sim.spawn(ue.execute_body(3.0)))
        assert record.latency == pytest.approx(estimate_t)
        assert record.energy_j == pytest.approx(estimate_e)


class TestBattery:
    def test_drains_with_compute(self, sim):
        ue = make_ue(sim, battery_capacity_j=100.0)
        sim.run(until=sim.spawn(ue.execute_body(10.0)))  # 10 s -> 9 J
        assert ue.battery_level_j == pytest.approx(91.0)
        assert ue.battery_fraction == pytest.approx(0.91)

    def test_depletion_fails_execution(self, sim):
        ue = make_ue(sim, battery_capacity_j=1.0)
        process = sim.spawn(ue.execute_body(10.0))  # needs 9 J
        with pytest.raises(BatteryDepleted):
            sim.run(until=process)
        assert ue.battery_level_j == 0.0

    def test_recharge_full(self, sim):
        ue = make_ue(sim, battery_capacity_j=100.0)
        sim.run(until=sim.spawn(ue.execute_body(10.0)))
        ue.recharge()
        assert ue.battery_level_j == pytest.approx(100.0)

    def test_recharge_partial_caps_at_capacity(self, sim):
        ue = make_ue(sim, battery_capacity_j=100.0)
        sim.run(until=sim.spawn(ue.execute_body(10.0)))
        ue.recharge(4.0)
        assert ue.battery_level_j == pytest.approx(95.0)
        ue.recharge(1000.0)
        assert ue.battery_level_j == pytest.approx(100.0)

    def test_energy_metric_accumulates(self, sim):
        ue = make_ue(sim)
        sim.run(until=sim.spawn(ue.execute_body(10.0)))
        assert ue.metrics.counter("ue.energy_j").value == pytest.approx(9.0)


class TestRadio:
    def make_path(self, sim, rate=100.0, latency=0.0):
        return NetworkPath(sim, [Link(sim, bandwidth=rate, latency_s=latency)])

    def test_transmit_drains_tx_energy(self, sim):
        ue = make_ue(sim)
        path = self.make_path(sim, rate=100.0)
        result = sim.run(
            until=sim.spawn(ue.radio_body(1000.0, path, transmit=True))
        )
        assert result.duration == pytest.approx(10.0)
        # Default transmit power is 1.3 W.
        assert ue.battery_level_j == pytest.approx(100.0 - 13.0)

    def test_receive_drains_rx_energy(self, sim):
        ue = make_ue(sim)
        path = self.make_path(sim, rate=100.0)
        sim.run(until=sim.spawn(ue.radio_body(1000.0, path, transmit=False)))
        assert ue.battery_level_j == pytest.approx(100.0 - 10.0)

    def test_radio_depletion(self, sim):
        ue = make_ue(sim, battery_capacity_j=5.0)
        path = self.make_path(sim, rate=10.0)
        # 100 s at 1.3 W
        process = sim.spawn(ue.radio_body(1000.0, path, transmit=True))
        with pytest.raises(BatteryDepleted):
            sim.run(until=process)

    def test_byte_counters(self, sim):
        ue = make_ue(sim)
        path = self.make_path(sim)
        sim.run(until=sim.spawn(ue.radio_body(500.0, path, transmit=True)))
        assert ue.metrics.counter("ue.tx_bytes").value == 500.0
