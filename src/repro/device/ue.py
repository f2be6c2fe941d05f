"""The User Equipment: constrained CPU, radio, battery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, NamedTuple, Optional

from repro.device.energy import EnergyModel
from repro.metrics import MetricRegistry
from repro.network.link import NetworkPath, TransferResult
from repro.sim import Container, Event, Resource, Simulator


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware characteristics of one UE.

    ``cycles_per_second`` is per core at full frequency; phone-class SoCs
    sustain roughly 1–2 GHz of useful throughput per big core, far below
    the 2.4 GHz reference core the serverless platform models — that gap
    is the speedup offloading buys.

    ``frequency_steps`` are the DVFS operating points as fractions of the
    full frequency.  Dynamic power scales cubically with frequency
    (P ∝ C·V²·f with V ∝ f), so running a job at fraction *f* takes 1/f
    times as long but spends f² times the energy — the knob delay-tolerant
    scheduling turns for *local* work.
    """

    name: str = "ue"
    cycles_per_second: float = 1.2e9
    cores: int = 4
    battery_capacity_j: float = 40_000.0  # ~11 Wh phone battery
    energy: EnergyModel = EnergyModel()
    frequency_steps: tuple = (0.4, 0.6, 0.8, 1.0)

    def __post_init__(self) -> None:
        if self.cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be > 0")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.battery_capacity_j <= 0:
            raise ValueError("battery capacity must be > 0")
        if not self.frequency_steps:
            raise ValueError("at least one frequency step is required")
        if any(not 0.0 < f <= 1.0 for f in self.frequency_steps):
            raise ValueError("frequency steps must be in (0, 1]")
        if 1.0 not in self.frequency_steps:
            raise ValueError("the full frequency 1.0 must be a step")

    def execution_time(
        self, work_gcycles: float, frequency_fraction: float = 1.0
    ) -> float:
        """Seconds one core needs for ``work_gcycles`` at a DVFS point."""
        if work_gcycles < 0:
            raise ValueError("work must be >= 0")
        if not 0.0 < frequency_fraction <= 1.0:
            raise ValueError("frequency fraction must be in (0, 1]")
        return work_gcycles * 1e9 / (self.cycles_per_second * frequency_fraction)

    def compute_power_w(self, frequency_fraction: float = 1.0) -> float:
        """Active compute power at a DVFS point (cubic scaling)."""
        if not 0.0 < frequency_fraction <= 1.0:
            raise ValueError("frequency fraction must be in (0, 1]")
        return self.energy.compute_w * frequency_fraction ** 3

    def compute_energy_j(
        self, work_gcycles: float, frequency_fraction: float = 1.0
    ) -> float:
        """Energy for ``work_gcycles`` at a DVFS point (∝ f²)."""
        return self.compute_power_w(frequency_fraction) * self.execution_time(
            work_gcycles, frequency_fraction
        )


class LocalExecution(NamedTuple):
    """Record of one on-device execution."""

    work_gcycles: float
    started_at: float
    finished_at: float
    energy_j: float

    @property
    def latency(self) -> float:
        """Wall-clock seconds including any wait for a free core."""
        return self.finished_at - self.started_at


class BatteryDepleted(RuntimeError):
    """Raised when an activity would drain the battery below zero."""


class UserEquipment:
    """A simulated device that can compute locally and use the radio.

    All activities draw the battery; when it runs dry the activity raises
    :class:`BatteryDepleted`, letting experiments measure time-to-empty.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[DeviceSpec] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else DeviceSpec()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._cpu = Resource(sim, capacity=self.spec.cores)
        self._battery = Container(
            sim,
            capacity=self.spec.battery_capacity_j,
            init=self.spec.battery_capacity_j,
        )

    # -- battery ------------------------------------------------------------

    @property
    def battery_level_j(self) -> float:
        """Remaining charge in joules."""
        return self._battery.level

    @property
    def battery_fraction(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return self._battery.level / self.spec.battery_capacity_j

    def _drain(self, joules: float) -> None:
        if joules < 0:
            raise ValueError("energy must be >= 0")
        if joules > self._battery.level:
            # Take what's left so the level reads zero, then fail.
            remaining = self._battery.level
            if remaining > 0:
                self._battery.get(remaining)
            raise BatteryDepleted(
                f"{self.spec.name}: needed {joules:.1f} J, "
                f"had {remaining:.1f} J"
            )
        self._battery.get(joules)
        self.metrics.counter(f"{self.spec.name}.energy_j").increment(joules)

    def brownout(self, fraction: float) -> None:
        """Instantly lose ``fraction`` of the *remaining* charge.

        Models a power fault (battery sag, a misbehaving app draining the
        pack): unlike :meth:`_drain` this never raises — a brownout takes
        what is there.  Fault injection schedules these at window starts.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        loss = self._battery.level * fraction
        if loss > 0:
            self._battery.get(loss)
        self.metrics.counter(f"{self.spec.name}.brownouts").increment()
        self.metrics.counter(f"{self.spec.name}.brownout_j").increment(loss)

    def recharge(self, joules: Optional[float] = None) -> None:
        """Add charge (full recharge when ``joules`` is None)."""
        room = self.spec.battery_capacity_j - self._battery.level
        amount = room if joules is None else min(joules, room)
        if amount > 0:
            self._battery.put(amount)

    # -- computing ------------------------------------------------------------

    def estimate_execution_time(
        self, work_gcycles: float, frequency_fraction: float = 1.0
    ) -> float:
        """Uncontended single-core runtime estimate (used by planners)."""
        return self.spec.execution_time(work_gcycles, frequency_fraction)

    def estimate_execution_energy(
        self, work_gcycles: float, frequency_fraction: float = 1.0
    ) -> float:
        """Energy estimate for executing ``work_gcycles`` locally."""
        return self.spec.compute_energy_j(work_gcycles, frequency_fraction)

    def execute_body(
        self, work_gcycles: float, frequency_fraction: float = 1.0
    ) -> Generator[Event, object, LocalExecution]:
        """Run ``work_gcycles`` on a local core at a DVFS point.

        Delegate into it with ``yield from``; it returns a
        :class:`LocalExecution`.  Queues (first come, first served) when
        all cores are busy; drains compute energy.
        """
        started = self.sim.now
        request = self._cpu.request()
        yield request
        try:
            duration = self.spec.execution_time(work_gcycles, frequency_fraction)
            yield self.sim.timeout(duration)
            energy = self.spec.compute_energy_j(work_gcycles, frequency_fraction)
            self._drain(energy)
        finally:
            self._cpu.release(request)
        record = LocalExecution(
            work_gcycles=work_gcycles,
            started_at=started,
            finished_at=self.sim.now,
            energy_j=energy,
        )
        self.metrics.summary(f"{self.spec.name}.exec_latency_s").observe(record.latency)
        return record

    # -- radio ----------------------------------------------------------------

    def radio_body(
        self,
        nbytes: float,
        path: NetworkPath,
        transmit: bool,
        parent: Optional[object] = None,
    ) -> Generator[Event, object, TransferResult]:
        """Move ``nbytes`` over ``path``: up when ``transmit``, else down.

        Drains transmit or receive energy.  Delegate into it with
        ``yield from``; it returns the path's
        :class:`~repro.network.link.TransferResult`, and the path transfer
        runs inline.  ``parent`` optionally carries the caller's
        telemetry span down to the path's transfer span.
        """
        result: TransferResult = yield from path.transfer(nbytes, parent)
        model = self.spec.energy
        if transmit:
            energy = model.transmit_energy(result.radio_seconds)
        else:
            energy = model.receive_energy(result.radio_seconds)
        self._drain(energy)
        key = "tx" if transmit else "rx"
        self.metrics.counter(f"{self.spec.name}.{key}_bytes").increment(nbytes)
        return result


__all__ = ["BatteryDepleted", "DeviceSpec", "LocalExecution", "UserEquipment"]
