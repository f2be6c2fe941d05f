"""T5 — Planning fidelity: predicted vs measured.

Every decision in the framework rests on the planning model
(`evaluate_partition`): if its predictions diverge from what the
simulated execution actually does, the partitions, allocations, and
deadline math are built on sand.  This experiment runs each catalog
application end to end and compares the *predicted* makespan, UE energy,
and cloud cost of the chosen plan against the measured outcome.

Expected shape: predictions land within tight bounds (the documented
gaps are cold starts — deliberately excluded from the evaluation model
and handled by the scheduler's cold-start allowance — execution noise,
and storage/queueing effects the planner intentionally ignores).
"""

from repro import Environment, Job, OffloadController
from repro.apps.catalog import CATALOG
from repro.core.partitioning import evaluate_partition
from repro.metrics import Table

from _common import emit

INPUT_MB = 5.0
SEED = 201


def run_app(name, factory):
    env = Environment.build(seed=SEED, execution_noise_sigma=0.0)
    controller = OffloadController(env, factory())
    controller.profile_offline(noise_sigma=0.0)
    controller.plan(input_mb=INPUT_MB)
    prediction = evaluate_partition(
        controller.build_context(INPUT_MB), controller.partition
    )
    # Warm the platform so the measured run matches the warm-start model.
    warmup = Job(controller.app, input_mb=INPUT_MB)
    controller.run_workload([warmup])
    measured = controller.run_workload(
        [Job(controller.app, input_mb=INPUT_MB)]
    ).results[0]
    return prediction, measured


def run_t5() -> Table:
    table = Table(
        ["app", "metric", "predicted", "measured", "error %"],
        title=f"T5: planning fidelity — warm-start jobs at {INPUT_MB:.0f} MB, "
              "noise disabled",
        precision=3,
    )
    worst = 0.0
    for name, factory in sorted(CATALOG.items()):
        prediction, measured = run_app(name, factory)
        rows = [
            ("makespan s", prediction.makespan_s, measured.makespan),
            ("UE energy J", prediction.ue_energy_j, measured.ue_energy_j),
            ("cloud $", prediction.cloud_cost_usd, measured.cloud_cost_usd),
        ]
        for metric, predicted, actual in rows:
            if actual > 0:
                error = 100 * (predicted - actual) / actual
            else:
                error = 0.0 if predicted == 0 else 100.0
            worst = max(worst, abs(error))
            table.add_row(name, metric, predicted, actual, error)
            # The planner must be faithful on its own terms.
            assert abs(error) < 6.0, (name, metric, error)
    return table


def bench_t5_fidelity():
    table = run_t5()
    emit(table)
    errors = [abs(e) for e in table.column("error %")]
    assert sum(errors) / len(errors) < 3.0  # mean error under 3%


if __name__ == "__main__":
    emit(run_t5())
