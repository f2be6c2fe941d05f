"""F1 — Offload benefit vs uplink bandwidth (the crossover figure).

Sweeps the uplink from 0.1 to 100 Mbit/s and measures three policies end
to end on the photo-backup workload.  Expected shape: local-only is flat;
full-offload improves with bandwidth and crosses local somewhere in the
single-digit Mbit/s range; the controller tracks whichever side is better
(its objective is min-like) across the whole sweep.
"""

from repro import Job, ObjectiveWeights, OffloadController, photo_backup_app
from repro.baselines import full_offload_controller, local_only_controller
from repro.metrics import Table

from _common import MBPS, build_env_with_uplink, emit

BANDWIDTHS_MBPS = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
N_JOBS = 4
INPUT_MB = 4.0
SLACK_S = 7200.0
SEED = 44
WEIGHTS = ObjectiveWeights()  # balanced: latency visible, cost counted


def run_policy(make_controller, mbps):
    env = build_env_with_uplink(mbps * MBPS, seed=SEED)
    controller = make_controller(env)
    if controller.partition is None:
        controller.profile_offline()
        controller.plan(input_mb=INPUT_MB)
    jobs = [
        Job(controller.app, input_mb=INPUT_MB, released_at=90.0 * i,
            deadline=90.0 * i + SLACK_S)
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    objective = WEIGHTS.combine(
        report.mean_response_s,
        report.total_ue_energy_j / N_JOBS,
        report.total_cloud_cost_usd / N_JOBS,
    )
    return report, objective, controller


def run_f1() -> Table:
    table = Table(
        ["uplink Mbit/s", "policy", "mean resp s", "energy/job J",
         "$/job", "objective", "n cloud"],
        title="F1: policy comparison vs uplink bandwidth (photo backup)",
        precision=3,
    )
    for mbps in BANDWIDTHS_MBPS:
        local_report, local_obj, _ = run_policy(
            lambda env: local_only_controller(
                env, photo_backup_app(), weights=WEIGHTS
            ),
            mbps,
        )
        full_report, full_obj, _ = run_policy(
            lambda env: full_offload_controller(
                env, photo_backup_app(), weights=WEIGHTS
            ),
            mbps,
        )
        ctl_report, ctl_obj, controller = run_policy(
            lambda env: OffloadController(
                env, photo_backup_app(), weights=WEIGHTS
            ),
            mbps,
        )
        rows = [
            ("local-only", local_report, local_obj, 0),
            ("full-offload", full_report, full_obj,
             len(photo_backup_app().offloadable_names())),
            ("controller", ctl_report, ctl_obj, len(controller.partition.cloud)),
        ]
        for name, report, objective, ncloud in rows:
            table.add_row(
                mbps, name, report.mean_response_s,
                report.total_ue_energy_j / N_JOBS,
                report.total_cloud_cost_usd / N_JOBS, objective, ncloud,
            )
        # The controller tracks the winner (within noise/cold-start slop).
        assert ctl_obj <= min(local_obj, full_obj) * 1.30, mbps
    return table


def figure_f1(table) -> str:
    from repro.metrics import ascii_line

    points = {
        policy: ([], [])
        for policy in ("local-only", "full-offload", "controller")
    }
    for row in table.rows:
        xs, ys = points[row[1]]
        xs.append(row[0])
        ys.append(row[5])
    charts = []
    for policy, (xs, ys) in points.items():
        charts.append(
            ascii_line(
                xs, ys, width=56, height=8, log_x=True,
                title=f"objective vs uplink Mbit/s — {policy}",
            )
        )
    return "\n\n".join(charts)


def bench_f1_bandwidth():
    table = run_f1()
    emit(table)
    print(figure_f1(table))

    by_bw = {}
    for row in table.rows:
        by_bw.setdefault(row[0], {})[row[1]] = row[5]
    lows = by_bw[min(BANDWIDTHS_MBPS)]
    highs = by_bw[max(BANDWIDTHS_MBPS)]
    # Crossover: full-offload loses at the low end, wins at the high end.
    assert lows["full-offload"] > lows["local-only"]
    assert highs["full-offload"] < highs["local-only"]
    # The controller sides with the winner at both extremes.
    assert lows["controller"] <= lows["local-only"] * 1.10
    assert highs["controller"] <= highs["full-offload"] * 1.10


if __name__ == "__main__":
    table = run_f1()
    emit(table)
    print(figure_f1(table))
