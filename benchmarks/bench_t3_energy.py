"""T3 — UE energy savings across connectivity.

Runs the photo-backup workload end to end (not just planning estimates)
under each connectivity preset and compares the optimiser's measured UE
energy against local-only.  Expected shape: savings grow with uplink
quality; on the slowest link the optimiser falls back toward local and
never does *worse* than the better trivial policy.
"""

from repro import Environment, Job, ObjectiveWeights, OffloadController, photo_backup_app
from repro.baselines import local_only_controller
from repro.metrics import Table

from _common import emit

CONNECTIVITIES = ["3g", "4g", "5g", "wifi"]
N_JOBS = 6
INPUT_MB = 4.0
SLACK_S = 3600.0
SEED = 33


def run_workload(make_controller, connectivity):
    env = Environment.build(seed=SEED, connectivity=connectivity)
    controller = make_controller(env)
    if controller.partition is None:
        controller.profile_offline()
        controller.plan(input_mb=INPUT_MB)
    jobs = [
        Job(controller.app, input_mb=INPUT_MB, released_at=60.0 * i,
            deadline=60.0 * i + SLACK_S)
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    return report, controller


def run_t3() -> Table:
    table = Table(
        ["connectivity", "policy", "energy J", "resp s", "cloud $",
         "miss %", "n cloud"],
        title=f"T3: measured UE energy — photo backup, {N_JOBS} jobs of "
              f"{INPUT_MB:.0f} MB, 1 h slack",
        precision=2,
    )
    for connectivity in CONNECTIVITIES:
        local_report, _ = run_workload(
            lambda env: local_only_controller(env, photo_backup_app()),
            connectivity,
        )
        opt_report, opt = run_workload(
            lambda env: OffloadController(
                env, photo_backup_app(),
                weights=ObjectiveWeights.non_time_critical(),
            ),
            connectivity,
        )
        for policy, report, ncloud in (
            ("local-only", local_report, 0),
            ("optimised", opt_report, len(opt.partition.cloud)),
        ):
            table.add_row(
                connectivity, policy, report.total_ue_energy_j,
                report.mean_response_s, report.total_cloud_cost_usd,
                100 * report.deadline_miss_rate, ncloud,
            )
        # The optimiser never burns meaningfully more energy than local.
        assert opt_report.total_ue_energy_j <= local_report.total_ue_energy_j * 1.05
    return table


def bench_t3_energy():
    table = run_t3()
    emit(table)
    energies = {}
    for row in table.rows:
        energies.setdefault(row[0], {})[row[1]] = row[2]
    # On a good link the savings are large (>50%)...
    assert energies["wifi"]["optimised"] < 0.5 * energies["wifi"]["local-only"]
    # ...and savings never shrink when moving 3g -> wifi.
    saving = lambda c: 1 - energies[c]["optimised"] / energies[c]["local-only"]
    assert saving("wifi") >= saving("3g") - 0.05


if __name__ == "__main__":
    emit(run_t3())
