"""Demand determination (contribution C1).

Every offloading decision downstream — partitioning, memory allocation,
scheduling — consumes a prediction of how many gigacycles a component will
burn for a given input.  This module provides a family of estimators that
turn :class:`~repro.profiling.profiler.DemandObservation` streams into
predictions, plus :class:`DemandModel`, the per-application bundle the
controller carries.

Estimator zoo (ablation A2 compares them):

* :class:`StaticEstimator` — a fixed developer guess; the no-profiling
  baseline.
* :class:`MeanEstimator` — sample mean, ignoring input size.
* :class:`EwmaEstimator` — exponentially weighted mean; tracks drift.
* :class:`QuantileEstimator` — a conservative upper quantile; protects
  deadline-sensitive decisions from underestimation.
* :class:`RegressionEstimator` — least-squares ``base + slope*input_mb``;
  the right model when demand scales with input, as it does for all the
  catalog applications.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.apps.graph import AppGraph
from repro.profiling.profiler import DemandObservation


@dataclass(frozen=True)
class DemandProfile:
    """A point summary of one component's demand model.

    ``base_gcycles`` and ``per_mb_gcycles`` describe the affine demand
    curve; ``uncertainty`` is a one-sigma relative error estimate used by
    conservative consumers.
    """

    component: str
    base_gcycles: float
    per_mb_gcycles: float
    uncertainty: float = 0.0
    observation_count: int = 0

    def predict(self, input_mb: float) -> float:
        """Expected demand in gigacycles at ``input_mb``."""
        if input_mb < 0:
            raise ValueError("input size must be >= 0")
        return max(self.base_gcycles + self.per_mb_gcycles * input_mb, 0.0)

    def conservative(self, input_mb: float, sigmas: float = 2.0) -> float:
        """Demand inflated by ``sigmas`` standard deviations."""
        return self.predict(input_mb) * (1.0 + sigmas * self.uncertainty)


class DemandEstimator(ABC):
    """Interface: consume observations, emit predictions."""

    def __init__(self, component: str) -> None:
        self.component = component
        self.observation_count = 0

    def observe(self, observation: DemandObservation) -> None:
        """Feed one measurement into the estimator."""
        if observation.component != self.component:
            raise ValueError(
                f"estimator for {self.component!r} fed observation "
                f"for {observation.component!r}"
            )
        self.observation_count += 1
        self._update(observation)

    def observe_all(self, observations: Iterable[DemandObservation]) -> None:
        """Feed a batch of measurements."""
        for observation in observations:
            self.observe(observation)

    @abstractmethod
    def _update(self, observation: DemandObservation) -> None:
        """Estimator-specific state update."""

    @abstractmethod
    def predict(self, input_mb: float) -> float:
        """Predicted demand in gigacycles at ``input_mb``."""

    def profile(self) -> DemandProfile:
        """Export the current state as a :class:`DemandProfile`.

        The default fits no slope: base = prediction at 0 MB, slope =
        finite difference over 1 MB.  Estimators with richer state
        override this.
        """
        base = self.predict(0.0)
        slope = self.predict(1.0) - base
        return DemandProfile(
            component=self.component,
            base_gcycles=base,
            per_mb_gcycles=max(slope, 0.0),
            observation_count=self.observation_count,
        )


class StaticEstimator(DemandEstimator):
    """A fixed developer-supplied guess; never learns."""

    def __init__(self, component: str, guess_gcycles: float) -> None:
        super().__init__(component)
        if guess_gcycles < 0:
            raise ValueError("guess must be >= 0")
        self.guess_gcycles = guess_gcycles

    def _update(self, observation: DemandObservation) -> None:
        pass  # deliberately ignores evidence

    def predict(self, input_mb: float) -> float:
        return self.guess_gcycles


class MeanEstimator(DemandEstimator):
    """Sample mean of all measurements, independent of input size."""

    def __init__(self, component: str, prior_gcycles: float = 1.0) -> None:
        super().__init__(component)
        self._sum = 0.0
        self._sum_sq = 0.0
        self._prior = prior_gcycles

    def _update(self, observation: DemandObservation) -> None:
        self._sum += observation.measured_gcycles
        self._sum_sq += observation.measured_gcycles ** 2

    def predict(self, input_mb: float) -> float:
        if self.observation_count == 0:
            return self._prior
        return self._sum / self.observation_count

    def profile(self) -> DemandProfile:
        mean = self.predict(0.0)
        uncertainty = 0.0
        if self.observation_count > 1 and mean > 0:
            variance = max(
                self._sum_sq / self.observation_count - mean * mean, 0.0
            )
            uncertainty = math.sqrt(variance) / mean
        return DemandProfile(
            component=self.component,
            base_gcycles=mean,
            per_mb_gcycles=0.0,
            uncertainty=uncertainty,
            observation_count=self.observation_count,
        )


class EwmaEstimator(DemandEstimator):
    """Exponentially weighted moving average; tracks demand drift."""

    def __init__(
        self, component: str, alpha: float = 0.2, prior_gcycles: float = 1.0
    ) -> None:
        super().__init__(component)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = prior_gcycles
        self._seeded = False

    def _update(self, observation: DemandObservation) -> None:
        if not self._seeded:
            self._value = observation.measured_gcycles
            self._seeded = True
        else:
            self._value = (
                self.alpha * observation.measured_gcycles
                + (1.0 - self.alpha) * self._value
            )

    def predict(self, input_mb: float) -> float:
        return self._value


class QuantileEstimator(DemandEstimator):
    """An upper quantile of the measurements (conservative planning).

    Retains observations (profiling sets are small) and reports the exact
    empirical quantile.
    """

    def __init__(
        self, component: str, quantile: float = 0.95, prior_gcycles: float = 1.0
    ) -> None:
        super().__init__(component)
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        self.quantile = quantile
        self._samples: List[float] = []
        self._prior = prior_gcycles

    def _update(self, observation: DemandObservation) -> None:
        self._samples.append(observation.measured_gcycles)

    def predict(self, input_mb: float) -> float:
        if not self._samples:
            return self._prior
        data = sorted(self._samples)
        position = self.quantile * (len(data) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return data[lower]
        weight = position - lower
        return data[lower] * (1 - weight) + data[upper] * weight


class RegressionEstimator(DemandEstimator):
    """Least-squares affine fit ``demand = base + slope * input_mb``.

    Maintains the normal-equation sufficient statistics incrementally, so
    memory is O(1) regardless of stream length.  Falls back to the mean
    when all observations share one input size (the system is singular).
    """

    def __init__(self, component: str, prior_gcycles: float = 1.0) -> None:
        super().__init__(component)
        self._n = 0
        self._sum_x = 0.0
        self._sum_y = 0.0
        self._sum_xx = 0.0
        self._sum_xy = 0.0
        self._sum_yy = 0.0
        self._prior = prior_gcycles

    def _update(self, observation: DemandObservation) -> None:
        x, y = observation.input_mb, observation.measured_gcycles
        self._n += 1
        self._sum_x += x
        self._sum_y += y
        self._sum_xx += x * x
        self._sum_xy += x * y
        self._sum_yy += y * y

    def _fit(self) -> tuple[float, float]:
        if self._n == 0:
            return self._prior, 0.0
        denom = self._n * self._sum_xx - self._sum_x ** 2
        if abs(denom) < 1e-12:  # all inputs identical: slope unidentifiable
            return self._sum_y / self._n, 0.0
        slope = (self._n * self._sum_xy - self._sum_x * self._sum_y) / denom
        base = (self._sum_y - slope * self._sum_x) / self._n
        # Demands are non-negative; clamp pathological fits.
        slope = max(slope, 0.0)
        base = max(base, 0.0)
        return base, slope

    def predict(self, input_mb: float) -> float:
        base, slope = self._fit()
        return max(base + slope * input_mb, 0.0)

    def profile(self) -> DemandProfile:
        base, slope = self._fit()
        uncertainty = 0.0
        if self._n > 2:
            mean_y = self._sum_y / self._n
            ss_tot = max(self._sum_yy - self._n * mean_y * mean_y, 0.0)
            # Residual sum of squares from the sufficient statistics.
            ss_res = max(
                self._sum_yy
                - 2 * (base * self._sum_y + slope * self._sum_xy)
                + self._n * base * base
                + 2 * base * slope * self._sum_x
                + slope * slope * self._sum_xx,
                0.0,
            )
            if mean_y > 0:
                uncertainty = math.sqrt(ss_res / self._n) / mean_y
        return DemandProfile(
            component=self.component,
            base_gcycles=base,
            per_mb_gcycles=slope,
            uncertainty=uncertainty,
            observation_count=self.observation_count,
        )


class BayesianLinearEstimator(DemandEstimator):
    """Bayesian affine regression with calibrated uncertainty.

    Conjugate normal model over weights ``w = (base, slope)`` with a
    Gaussian prior and (assumed-known) observation noise: the posterior
    stays Gaussian, so updates are exact 2x2 linear algebra and the
    *predictive* standard deviation is available in closed form — the
    quantity conservative consumers (deadline math, admission control)
    actually want, and which the point estimators can only fake.

    Parameters
    ----------
    prior_base_gcycles / prior_slope:
        Prior means for intercept and per-MB slope.
    prior_std:
        Prior standard deviation on both weights (weak by default).
    noise_std:
        Assumed observation noise (absolute, in gigacycles).
    """

    def __init__(
        self,
        component: str,
        prior_base_gcycles: float = 1.0,
        prior_slope: float = 0.0,
        prior_std: float = 10.0,
        noise_std: float = 0.5,
    ) -> None:
        super().__init__(component)
        if prior_std <= 0 or noise_std <= 0:
            raise ValueError("prior and noise stds must be > 0")
        self.noise_variance = noise_std ** 2
        # Posterior as precision form: Λ = S⁻¹ (2x2), b = Λ·μ (2-vector).
        precision0 = 1.0 / prior_std ** 2
        self._lambda = [[precision0, 0.0], [0.0, precision0]]
        self._b = [
            precision0 * prior_base_gcycles,
            precision0 * prior_slope,
        ]

    # -- linear algebra on 2x2 systems, kept dependency-free -----------------

    def _mean(self) -> tuple[float, float]:
        (a, b_), (c, d) = self._lambda
        det = a * d - b_ * c
        if det == 0:  # pragma: no cover - prior guarantees det > 0
            return self._b[0], self._b[1]
        inv = [[d / det, -b_ / det], [-c / det, a / det]]
        mu0 = inv[0][0] * self._b[0] + inv[0][1] * self._b[1]
        mu1 = inv[1][0] * self._b[0] + inv[1][1] * self._b[1]
        return mu0, mu1

    def _update(self, observation: DemandObservation) -> None:
        x = (1.0, observation.input_mb)
        weight = 1.0 / self.noise_variance
        for i in range(2):
            for j in range(2):
                self._lambda[i][j] += weight * x[i] * x[j]
            self._b[i] += weight * x[i] * observation.measured_gcycles

    def predict(self, input_mb: float) -> float:
        base, slope = self._mean()
        return max(base + slope * input_mb, 0.0)

    def predictive_std(self, input_mb: float) -> float:
        """Standard deviation of the posterior predictive at ``input_mb``."""
        x = (1.0, input_mb)
        (a, b_), (c, d) = self._lambda
        det = a * d - b_ * c
        inv = [[d / det, -b_ / det], [-c / det, a / det]]
        variance = sum(
            x[i] * inv[i][j] * x[j] for i in range(2) for j in range(2)
        )
        return math.sqrt(max(variance, 0.0) + self.noise_variance)

    def credible_upper(self, input_mb: float, sigmas: float = 2.0) -> float:
        """A conservative demand bound: mean + ``sigmas``·predictive std."""
        return self.predict(input_mb) + sigmas * self.predictive_std(input_mb)

    def profile(self) -> DemandProfile:
        base, slope = self._mean()
        mean = max(base + slope * 1.0, 1e-12)
        return DemandProfile(
            component=self.component,
            base_gcycles=max(base, 0.0),
            per_mb_gcycles=max(slope, 0.0),
            uncertainty=self.predictive_std(1.0) / mean,
            observation_count=self.observation_count,
        )


class DemandModel:
    """The per-application bundle of estimators the controller carries.

    ``estimator_factory`` builds one estimator per component; the default
    is the regression estimator, the best performer in ablation A2.
    """

    def __init__(
        self,
        app: AppGraph,
        estimator_factory: Optional[type] = None,
        **estimator_kwargs,
    ) -> None:
        factory = estimator_factory or RegressionEstimator
        self.app = app
        self.estimators: Dict[str, DemandEstimator] = {
            name: factory(name, **estimator_kwargs) for name in app.component_names
        }

    def observe(self, observation: DemandObservation) -> None:
        """Route one observation to its component's estimator."""
        if observation.component not in self.estimators:
            raise KeyError(
                f"unknown component {observation.component!r} "
                f"for app {self.app.name!r}"
            )
        self.estimators[observation.component].observe(observation)

    def observe_profile(
        self, observations: Dict[str, List[DemandObservation]]
    ) -> None:
        """Ingest a whole profiler output."""
        for rows in observations.values():
            for observation in rows:
                self.observe(observation)

    def ingest_history(
        self, observations: Iterable[DemandObservation], strict: bool = False
    ) -> int:
        """Feed monitored-history observations; returns how many landed.

        The observed-signal path (:mod:`repro.monitor.observed`) derives
        observations from telemetry rather than the oracle profiler, so
        records for components this app does not know (another app's
        functions sharing the platform) are skipped unless ``strict``.
        """
        ingested = 0
        for observation in observations:
            if observation.component not in self.estimators:
                if strict:
                    raise KeyError(
                        f"unknown component {observation.component!r} "
                        f"for app {self.app.name!r}"
                    )
                continue
            self.estimators[observation.component].observe(observation)
            ingested += 1
        return ingested

    def predict(self, component: str, input_mb: float) -> float:
        """Predicted demand of ``component`` at ``input_mb``."""
        return self.estimators[component].predict(input_mb)

    def profiles(self) -> Dict[str, DemandProfile]:
        """Export every component's :class:`DemandProfile`."""
        return {name: est.profile() for name, est in self.estimators.items()}

    def mean_relative_error(self, input_mb: float) -> float:
        """Mean |predicted-true|/true against the app's ground truth.

        Only meaningful in simulation, where the true coefficients are
        known; the ablation uses it as its accuracy metric.
        """
        errors = []
        for component in self.app.components:
            truth = component.work_for(input_mb)
            if truth <= 0:
                continue
            predicted = self.predict(component.name, input_mb)
            errors.append(abs(predicted - truth) / truth)
        return sum(errors) / len(errors) if errors else 0.0


__all__ = [
    "BayesianLinearEstimator",
    "DemandEstimator",
    "DemandModel",
    "DemandProfile",
    "EwmaEstimator",
    "MeanEstimator",
    "QuantileEstimator",
    "RegressionEstimator",
    "StaticEstimator",
]
