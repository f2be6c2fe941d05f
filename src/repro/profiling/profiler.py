"""Demand measurement.

Real profilers observe wall-clock times and hardware counters and back out
work estimates; the dominant error sources are scheduling jitter and
input-dependent control flow.  We model both: every observation of a
component's true demand is multiplied by lognormal noise, and the true
demand itself varies with input size through the component's per-MB
coefficient.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.apps.graph import AppGraph, Component
from repro.sim.rng import RngStream


class _DemandObservationFields(NamedTuple):
    component: str
    input_mb: float
    measured_gcycles: float
    at_time: float = 0.0


class DemandObservation(_DemandObservationFields):
    """One measured execution of one component."""

    __slots__ = ()

    def __new__(
        cls,
        component: str,
        input_mb: float,
        measured_gcycles: float,
        at_time: float = 0.0,
    ) -> "DemandObservation":
        if input_mb < 0:
            raise ValueError("input size must be >= 0")
        if measured_gcycles < 0:
            raise ValueError("measured work must be >= 0")
        return tuple.__new__(
            cls, (component, input_mb, measured_gcycles, at_time)
        )


class Profiler:
    """Offline profiler: sweeps input sizes, collects noisy observations.

    Parameters
    ----------
    rng:
        Randomness source for measurement noise.
    noise_sigma:
        Lognormal sigma of the multiplicative measurement noise; 0.1
        corresponds to roughly ±10% run-to-run variation, typical of
        userspace timing.
    """

    def __init__(self, rng: RngStream, noise_sigma: float = 0.1) -> None:
        if noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        self.rng = rng
        self.noise_sigma = noise_sigma

    def measure(
        self, component: Component, input_mb: float, at_time: float = 0.0
    ) -> DemandObservation:
        """One noisy measurement of ``component`` at ``input_mb``."""
        true_demand = component.work_for(input_mb)
        if self.noise_sigma > 0 and true_demand > 0:
            noise = self.rng.lognormal_bounded(1.0, self.noise_sigma, low=0.2, high=5.0)
        else:
            noise = 1.0
        return DemandObservation(
            component=component.name,
            input_mb=input_mb,
            measured_gcycles=true_demand * noise,
            at_time=at_time,
        )

    def profile(
        self,
        app: AppGraph,
        input_sizes_mb: Sequence[float],
        repetitions: int = 3,
    ) -> Dict[str, List[DemandObservation]]:
        """Profile every component over a grid of input sizes.

        Returns observations keyed by component name — the raw material
        the demand estimators in :mod:`repro.core.demand` consume.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not input_sizes_mb:
            raise ValueError("at least one input size is required")
        observations: Dict[str, List[DemandObservation]] = {}
        for component in app.components:
            rows: List[DemandObservation] = []
            for size in input_sizes_mb:
                for _ in range(repetitions):
                    rows.append(self.measure(component, size))
            observations[component.name] = rows
        return observations


class OnlineProfiler:
    """Streams production observations into a sink (usually an estimator).

    Attach :meth:`record` wherever the controller completes a component
    execution; the sink receives a :class:`DemandObservation` built from
    the actual run.
    """

    def __init__(
        self,
        sink: Callable[[DemandObservation], None],
        rng: Optional[RngStream] = None,
        noise_sigma: float = 0.05,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        self.sink = sink
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.observation_count = 0

    def record(
        self,
        component: Component,
        input_mb: float,
        at_time: float,
    ) -> DemandObservation:
        """Measure one production execution and push it to the sink."""
        true_demand = component.work_for(input_mb)
        noise = 1.0
        if self.rng is not None and self.noise_sigma > 0 and true_demand > 0:
            noise = self.rng.lognormal_bounded(
                1.0, self.noise_sigma, low=0.2, high=5.0
            )
        observation = DemandObservation(
            component=component.name,
            input_mb=input_mb,
            measured_gcycles=true_demand * noise,
            at_time=at_time,
        )
        self.sink(observation)
        self.observation_count += 1
        return observation


__all__ = ["DemandObservation", "OnlineProfiler", "Profiler"]
