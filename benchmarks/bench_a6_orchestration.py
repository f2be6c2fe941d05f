"""A6 — Ablation: UE-coordinated vs workflow-orchestrated execution.

Two ways to run the cloud side of a partition:

* **controller** — the UE coordinates every invocation, staying
  awake-idle (25 mW) for the whole cloud episode; no orchestration fees;
* **workflow** — a server-side Step-Functions-class engine runs the
  cloud sub-DAG while the UE deep-sleeps (3 mW); each execution bills
  state transitions.

Expected shape: the workflow's energy saving grows with the cloud
episode's length (input size), while its fee overhead is a constant per
job — so orchestration wins energy on every job and the fee stays a
small multiple of the compute bill.
"""

from repro import Environment, Job, OffloadController
from repro.apps import ml_training_app, nightly_analytics_app
from repro.core.partitioning import FixedPartitioner, Partition
from repro.core.workflow_runner import WorkflowOffloadRunner
from repro.metrics import Table

from _common import emit

INPUT_SIZES_MB = [2.0, 8.0, 32.0]
SEED = 151


def run_pair(app_factory, input_mb):
    app = app_factory()
    partition = Partition.full_offload(app)

    env_ctl = Environment.build(seed=SEED, execution_noise_sigma=0.0)
    controller = OffloadController(
        env_ctl, app_factory(), partitioner=FixedPartitioner(partition)
    )
    controller.profile_offline()
    controller.plan(input_mb=input_mb)
    ctl = controller.run_workload(
        [Job(controller.app, input_mb=input_mb, deadline=10 * 3600.0)]
    ).results[0]

    env_wf = Environment.build(seed=SEED, execution_noise_sigma=0.0)
    runner = WorkflowOffloadRunner(
        env_wf,
        app_factory(),
        partition,
        memory_plan={n: d.memory_mb for n, d in controller.allocation.items()},
    )
    wf = runner.run_workload(
        [Job(runner.app, input_mb=input_mb, deadline=10 * 3600.0)]
    ).results[0]
    return ctl, wf


def run_a6() -> Table:
    table = Table(
        ["app", "input MB", "mode", "UE energy J", "cloud $", "resp s"],
        title="A6: coordination mode — awake-idle controller vs "
              "deep-sleep workflow",
        precision=3,
    )
    savings = []
    for app_factory in (nightly_analytics_app, ml_training_app):
        for input_mb in INPUT_SIZES_MB:
            ctl, wf = run_pair(app_factory, input_mb)
            name = app_factory().name
            table.add_row(name, input_mb, "controller", ctl.ue_energy_j,
                          ctl.cloud_cost_usd, ctl.response_time)
            table.add_row(name, input_mb, "workflow", wf.ue_energy_j,
                          wf.cloud_cost_usd, wf.response_time)
            savings.append(
                (name, input_mb, ctl.ue_energy_j - wf.ue_energy_j,
                 wf.cloud_cost_usd - ctl.cloud_cost_usd)
            )
            # Workflow always saves coordinator energy and always pays fees.
            assert wf.ue_energy_j < ctl.ue_energy_j, (name, input_mb)
            assert wf.cloud_cost_usd > ctl.cloud_cost_usd, (name, input_mb)
    # The energy saving grows with input size (longer cloud episodes).
    for name in {s[0] for s in savings}:
        series = [s[2] for s in savings if s[0] == name]
        assert series == sorted(series), (name, series)
    return table


def bench_a6_orchestration():
    table = run_a6()
    emit(table)
    # The fee overhead is tiny relative to the compute bill on the
    # heavy app (orchestration is worth paying for long phases).
    rows = [r for r in table.rows if r[0] == "ml_training" and r[1] == 32.0]
    by_mode = {r[2]: r for r in rows}
    fee = by_mode["workflow"][4] - by_mode["controller"][4]
    assert fee < 0.25 * by_mode["controller"][4]


if __name__ == "__main__":
    emit(run_a6())
