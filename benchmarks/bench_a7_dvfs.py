"""A7 — Ablation: DVFS under slack (crawl-to-deadline vs race-to-idle).

For the *local* share of a partition, slack admits a second energy lever
besides offloading: running the device slower.  Dynamic power scales
with f³, so halving the frequency doubles the runtime but quarters the
energy.  Sweeping the slack factor shows the controller walking down the
DVFS ladder exactly as fast as deadlines allow — and never missing.
"""

from repro import Environment, Job, OffloadController, photo_backup_app
from repro.core.partitioning import FixedPartitioner, Partition
from repro.metrics import Table

from _common import emit

SLACK_FACTORS = [1.2, 2.0, 4.0, 10.0, 1e6]
N_JOBS = 4
INPUT_MB = 4.0
SEED = 161
FULL_SPEED_SERVICE_S = 35.0  # local-only photo backup at 4 MB


def run_mode(dvfs, slack_factor):
    env = Environment.build(seed=SEED, execution_noise_sigma=0.0)
    app = photo_backup_app()
    controller = OffloadController(
        env, app,
        partitioner=FixedPartitioner(Partition.local_only(app)),
        dvfs=dvfs,
    )
    controller.profile_offline()  # DVFS leans on demand accuracy
    controller.plan(input_mb=INPUT_MB)
    slack = slack_factor * FULL_SPEED_SERVICE_S
    spacing = 400.0
    jobs = [
        Job(app, input_mb=INPUT_MB, released_at=spacing * i,
            deadline=spacing * i + slack)
        for i in range(N_JOBS)
    ]
    report = controller.run_workload(jobs)
    frequency = controller.select_frequency(jobs[-1], jobs[-1].released_at)
    return report, frequency


def run_a7() -> Table:
    table = Table(
        ["slack factor", "mode", "chosen freq", "energy/job J",
         "mean resp s", "miss %"],
        title=f"A7: DVFS vs slack — local-only photo backup, "
              f"service ≈ {FULL_SPEED_SERVICE_S:.0f} s at full speed",
        precision=2,
    )
    frequencies = []
    for slack_factor in SLACK_FACTORS:
        fixed_report, _ = run_mode(False, slack_factor)
        dvfs_report, frequency = run_mode(True, slack_factor)
        frequencies.append(frequency)
        for mode, report, freq in (
            ("full-speed", fixed_report, 1.0),
            ("dvfs", dvfs_report, frequency),
        ):
            table.add_row(
                slack_factor, mode, freq,
                report.total_ue_energy_j / N_JOBS,
                report.mean_response_s,
                100 * report.deadline_miss_rate,
            )
        # DVFS never misses and never burns more than full speed.
        assert dvfs_report.deadline_miss_rate == 0.0, slack_factor
        assert (
            dvfs_report.total_ue_energy_j
            <= fixed_report.total_ue_energy_j + 1e-9
        )
    # The chosen frequency walks down monotonically as slack grows.
    assert all(a >= b for a, b in zip(frequencies, frequencies[1:]))
    assert frequencies[0] == 1.0
    assert frequencies[-1] == 0.4
    return table


def figure_a7(table) -> str:
    from repro.metrics import ascii_bars

    rows = [row for row in table.rows if row[1] == "dvfs"]
    return ascii_bars(
        [f"slack x{row[0]:g}" for row in rows],
        [row[3] for row in rows],
        title="DVFS energy/job by slack (full-speed baseline: "
              f"{table.rows[0][3]:.1f} J)",
        unit=" J",
    )


def bench_a7_dvfs():
    table = run_a7()
    emit(table)
    print(figure_a7(table))
    # At the loosest slack the energy saving approaches the f² bound
    # (0.4² = 0.16 of full-speed compute energy).
    rows = [r for r in table.rows if r[0] == SLACK_FACTORS[-1]]
    by_mode = {r[1]: r[3] for r in rows}
    assert by_mode["dvfs"] < 0.25 * by_mode["full-speed"]


if __name__ == "__main__":
    table = run_a7()
    emit(table)
    print(figure_a7(table))
