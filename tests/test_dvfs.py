"""Tests for DVFS (dynamic voltage/frequency scaling) on the UE."""

import math

import pytest

from repro import Environment, Job, OffloadController, photo_backup_app
from repro.core.partitioning import FixedPartitioner, Partition
from repro.device import DeviceSpec, UserEquipment
from repro.sim import Simulator


class TestDeviceSpecDvfs:
    def test_execution_time_scales_inversely(self):
        spec = DeviceSpec(cycles_per_second=1.0e9)
        assert spec.execution_time(1.0, 0.5) == pytest.approx(
            2 * spec.execution_time(1.0, 1.0)
        )

    def test_power_scales_cubically(self):
        spec = DeviceSpec()
        assert spec.compute_power_w(0.5) == pytest.approx(
            spec.energy.compute_w / 8
        )

    def test_energy_scales_quadratically(self):
        spec = DeviceSpec()
        full = spec.compute_energy_j(10.0, 1.0)
        half = spec.compute_energy_j(10.0, 0.5)
        assert half == pytest.approx(full / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(frequency_steps=())
        with pytest.raises(ValueError):
            DeviceSpec(frequency_steps=(0.0, 1.0))
        with pytest.raises(ValueError):
            DeviceSpec(frequency_steps=(1.5, 1.0))
        with pytest.raises(ValueError):
            DeviceSpec(frequency_steps=(0.5, 0.8))  # missing full speed
        with pytest.raises(ValueError):
            DeviceSpec().execution_time(1.0, 0.0)
        with pytest.raises(ValueError):
            DeviceSpec().compute_power_w(2.0)


class TestUserEquipmentDvfs:
    def test_execute_at_reduced_frequency(self):
        sim = Simulator()
        ue = UserEquipment(sim, DeviceSpec(cycles_per_second=1.0e9))
        record = sim.run(
            until=sim.spawn(ue.execute_body(2.0, frequency_fraction=0.5))
        )
        assert record.latency == pytest.approx(4.0)
        # E = 0.9 W * (0.5)^3 * 4 s = 0.45 J.
        assert record.energy_j == pytest.approx(0.9 * 0.125 * 4.0)

    def test_reduced_frequency_saves_energy_despite_longer_runtime(self):
        sim = Simulator()
        ue = UserEquipment(sim, DeviceSpec())
        full = sim.run(until=sim.spawn(ue.execute_body(5.0, 1.0)))
        slow = sim.run(until=sim.spawn(ue.execute_body(5.0, 0.5)))
        assert slow.latency > full.latency
        assert slow.energy_j < full.energy_j

    def test_estimates_match(self):
        sim = Simulator()
        ue = UserEquipment(sim, DeviceSpec())
        t = ue.estimate_execution_time(3.0, 0.6)
        e = ue.estimate_execution_energy(3.0, 0.6)
        record = sim.run(until=sim.spawn(ue.execute_body(3.0, 0.6)))
        assert record.latency == pytest.approx(t)
        assert record.energy_j == pytest.approx(e)


def local_controller(env, dvfs):
    app = photo_backup_app()
    controller = OffloadController(
        env,
        app,
        partitioner=FixedPartitioner(Partition.local_only(app)),
        dvfs=dvfs,
    )
    controller.plan(input_mb=4.0)
    return controller


class TestControllerDvfs:
    def test_off_by_default_runs_full_speed(self):
        env = Environment.build(seed=1)
        controller = local_controller(env, dvfs=False)
        job = Job(controller.app, input_mb=4.0, deadline=1e6)
        assert controller.select_frequency(job, 0.0) == 1.0

    def test_infinite_deadline_selects_lowest(self):
        env = Environment.build(seed=1)
        controller = local_controller(env, dvfs=True)
        job = Job(controller.app, input_mb=4.0)  # no deadline
        assert controller.select_frequency(job, 0.0) == min(
            env.ue.spec.frequency_steps
        )

    def test_tight_deadline_selects_full_speed(self):
        env = Environment.build(seed=1)
        controller = local_controller(env, dvfs=True)
        estimate = controller.estimate_completion(
            Job(controller.app, input_mb=4.0), 1.0
        )
        job = Job(controller.app, input_mb=4.0, deadline=estimate * 1.2)
        assert controller.select_frequency(job, 0.0) == 1.0

    def test_loose_deadline_selects_reduced(self):
        env = Environment.build(seed=1)
        controller = local_controller(env, dvfs=True)
        job = Job(controller.app, input_mb=4.0, deadline=36_000.0)
        fraction = controller.select_frequency(job, 0.0)
        assert fraction < 1.0

    def test_dvfs_saves_energy_and_meets_deadline_end_to_end(self):
        def run(dvfs):
            env = Environment.build(seed=2, execution_noise_sigma=0.0)
            controller = local_controller(env, dvfs=dvfs)
            jobs = [
                Job(controller.app, input_mb=4.0, released_at=100.0 * i,
                    deadline=100.0 * i + 3600.0)
                for i in range(4)
            ]
            return controller.run_workload(jobs)

        fast = run(False)
        slow = run(True)
        assert slow.total_ue_energy_j < 0.5 * fast.total_ue_energy_j
        assert slow.deadline_miss_rate == 0.0
        assert slow.mean_response_s > fast.mean_response_s

    def test_dvfs_only_slows_local_components(self):
        """Offloaded work is unaffected by the device's DVFS point."""
        env = Environment.build(seed=3, execution_noise_sigma=0.0)
        app = photo_backup_app()
        controller = OffloadController(
            env, app,
            partitioner=FixedPartitioner(Partition.full_offload(app)),
            dvfs=True,
        )
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(app, input_mb=4.0, deadline=36_000.0)
        report = controller.run_workload([job])
        # Cloud components finish on the platform's clock regardless.
        invocations = env.platform.invocations
        assert len(invocations) == len(Partition.full_offload(app).cloud)
