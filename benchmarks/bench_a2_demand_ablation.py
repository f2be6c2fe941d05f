"""A2 — Ablation: demand estimators under three demand regimes.

Each estimator trains on the same observation stream and is scored by
mean relative prediction error at an unseen input size:

* **input-scaling** — demand grows with input size (the catalog apps'
  reality): regression should win, size-blind estimators plateau;
* **drifting** — demand shifts mid-stream: EWMA should win;
* **stationary-noisy** — flat demand, heavy noise: mean-family
  estimators win, the static guess stays bad.
"""

from repro.core.demand import (
    BayesianLinearEstimator,
    EwmaEstimator,
    MeanEstimator,
    QuantileEstimator,
    RegressionEstimator,
    StaticEstimator,
)
from repro.profiling import DemandObservation
from repro.metrics import Table
from repro.sim.rng import RngStream

from _common import emit

SEED = 111
N_OBSERVATIONS = 120


def estimator_zoo():
    return [
        ("static", StaticEstimator("c", guess_gcycles=5.0)),
        ("mean", MeanEstimator("c")),
        ("ewma", EwmaEstimator("c", alpha=0.15)),
        ("p95", QuantileEstimator("c", quantile=0.95)),
        ("regression", RegressionEstimator("c")),
        ("bayes", BayesianLinearEstimator("c", noise_std=1.0)),
    ]


def scenario_input_scaling(rng):
    """True demand 2 + 3*input_mb; inputs vary; mild noise.

    Scored at input 8 MB (beyond the training range's centre)."""
    observations = []
    for _ in range(N_OBSERVATIONS):
        x = rng.uniform(0.5, 5.0)
        truth = 2.0 + 3.0 * x
        noise = rng.lognormal_bounded(1.0, 0.08, low=0.5, high=2.0)
        observations.append(DemandObservation("c", x, truth * noise))
    return observations, 8.0, 2.0 + 3.0 * 8.0


def scenario_drift(rng):
    """Demand jumps from 10 to 25 gcycles two thirds through the stream.

    Scored against the *current* (post-drift) truth."""
    observations = []
    for i in range(N_OBSERVATIONS):
        truth = 10.0 if i < 2 * N_OBSERVATIONS // 3 else 25.0
        noise = rng.lognormal_bounded(1.0, 0.08, low=0.5, high=2.0)
        observations.append(DemandObservation("c", 2.0, truth * noise))
    return observations, 2.0, 25.0


def scenario_stationary_noisy(rng):
    """Flat demand of 12 gcycles with 30% noise."""
    observations = []
    for _ in range(N_OBSERVATIONS):
        noise = rng.lognormal_bounded(1.0, 0.3, low=0.3, high=3.0)
        observations.append(DemandObservation("c", 2.0, 12.0 * noise))
    return observations, 2.0, 12.0


SCENARIOS = [
    ("input-scaling", scenario_input_scaling),
    ("drift", scenario_drift),
    ("stationary-noisy", scenario_stationary_noisy),
]


def run_a2() -> Table:
    table = Table(
        ["scenario"] + [name for name, _ in estimator_zoo()],
        title=f"A2: mean relative prediction error (%) by estimator, "
              f"{N_OBSERVATIONS} observations per scenario",
        precision=1,
    )
    errors_by_scenario = {}
    for scenario_name, build in SCENARIOS:
        rng = RngStream(SEED)
        observations, test_input, truth = build(rng)
        row = [scenario_name]
        errors = {}
        for estimator_name, estimator in estimator_zoo():
            estimator.observe_all(observations)
            predicted = estimator.predict(test_input)
            error = 100 * abs(predicted - truth) / truth
            errors[estimator_name] = error
            row.append(error)
        errors_by_scenario[scenario_name] = errors
        table.add_row(*row)
    # Expected winners per regime.
    scaling = errors_by_scenario["input-scaling"]
    assert scaling["regression"] < min(scaling["mean"], scaling["ewma"],
                                       scaling["static"])
    # The Bayesian estimator matches the frequentist fit on this regime.
    assert scaling["bayes"] < 1.5 * scaling["regression"] + 1.0
    drift = errors_by_scenario["drift"]
    assert drift["ewma"] < min(drift["mean"], drift["static"], drift["p95"])
    noisy = errors_by_scenario["stationary-noisy"]
    assert noisy["mean"] < noisy["static"]
    return table


def bench_a2_demand_ablation():
    table = run_a2()
    emit(table)
    # Regression is the right default: on the input-scaling regime (the
    # one the catalog apps live in) its error stays within the
    # measurement-noise floor (~8% lognormal).
    assert table.rows[0][table.columns.index("regression")] < 10.0


if __name__ == "__main__":
    emit(run_a2())
