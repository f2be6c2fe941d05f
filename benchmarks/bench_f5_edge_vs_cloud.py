"""F5 — Edge vs cloud-serverless for non-time-critical jobs.

The paper's central argument quantified, in two parts:

* **F5a (latency adequacy):** the edge node answers faster — no WAN hop,
  no cold starts — so the *tightest feasible deadline* (the maximum
  observed response time) is lower on the edge.  That is the edge's
  entire advantage.
* **F5b (cost):** the edge bills by provisioned hours whether used or
  not, serverless bills per invocation.  Sweeping workload intensity
  shows serverless is far cheaper at the low duty cycles typical of
  non-time-critical, per-user jobs, and only loses once the node is kept
  genuinely busy.

Together: once a job has slack, the edge's latency edge buys nothing and
its infrastructure cost remains — exactly the paper's case for staying
in the cloud.
"""

from repro import Environment, Job, OffloadController
from repro.apps import nightly_analytics_app
from repro.baselines import EdgeEnvironment, EdgeJobRunner
from repro.metrics import Table

from _common import emit

INPUT_MB = 6.0
SEED = 88
HORIZON_S = 6 * 3600.0
JOBS_PER_HOUR_SWEEP = [0.5, 2.0, 8.0, 32.0, 128.0]


def make_jobs(app, n_jobs, horizon=HORIZON_S, slack=None):
    spacing = horizon / n_jobs
    slack = slack if slack is not None else horizon
    return [
        Job(app, input_mb=INPUT_MB, released_at=spacing * i,
            deadline=spacing * i + slack)
        for i in range(n_jobs)
    ]


def run_cloud(n_jobs):
    env = Environment.build(seed=SEED, connectivity="4g")
    controller = OffloadController(env, nightly_analytics_app())
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)
    report = controller.run_workload(make_jobs(controller.app, n_jobs))
    if env.sim.now < HORIZON_S:
        env.sim.run(until=HORIZON_S)  # run out the billing horizon
    return report, report.total_cloud_cost_usd


def run_edge(n_jobs):
    env = EdgeEnvironment.build(seed=SEED, connectivity="4g")
    runner = EdgeJobRunner(env, nightly_analytics_app())
    report = runner.run_workload(make_jobs(runner.app, n_jobs))
    if env.sim.now < HORIZON_S:
        env.sim.run(until=HORIZON_S)
    billing_end = max(HORIZON_S, env.sim.now)
    return report, env.edge.provisioned_cost(until=billing_end), env


def run_f5a() -> Table:
    table = Table(
        ["system", "mean resp s", "p100 resp s (min feasible deadline)",
         "UE energy/job J"],
        title="F5a: latency adequacy — 12 analytics jobs, 4G access",
        precision=2,
    )
    n = 12
    cloud_report, _ = run_cloud(n)
    edge_report, _cost, _env = run_edge(n)
    for name, report in (("edge node", edge_report), ("cloud serverless", cloud_report)):
        worst = max(r.response_time for r in report.results)
        table.add_row(
            name, report.mean_response_s, worst,
            report.total_ue_energy_j / report.jobs_completed,
        )
    edge_worst = max(r.response_time for r in edge_report.results)
    cloud_worst = max(r.response_time for r in cloud_report.results)
    # The edge's raison d'être: it supports tighter deadlines.
    assert edge_worst < cloud_worst
    return table


def run_f5b() -> Table:
    table = Table(
        ["jobs/hour", "edge $/job", "serverless $/job", "cheaper",
         "edge util %"],
        title=f"F5b: cost per job vs workload intensity "
              f"({HORIZON_S / 3600:.0f} h horizon, loose deadlines)",
        precision=4,
    )
    winners = []
    for rate in JOBS_PER_HOUR_SWEEP:
        n_jobs = max(int(rate * HORIZON_S / 3600.0), 1)
        _cloud_report, cloud_cost = run_cloud(n_jobs)
        _edge_report, edge_cost, edge_env = run_edge(n_jobs)
        edge_per_job = edge_cost / n_jobs
        cloud_per_job = cloud_cost / n_jobs
        winner = "serverless" if cloud_per_job < edge_per_job else "edge"
        winners.append(winner)
        table.add_row(
            rate, edge_per_job, cloud_per_job, winner,
            100 * edge_env.edge.utilisation(),
        )
    # The paper's regime: sparse non-time-critical jobs -> serverless wins.
    assert winners[0] == "serverless"
    assert winners[1] == "serverless"
    # The flip only happens (if at all) once the node is kept busy.
    if "edge" in winners:
        first_edge = winners.index("edge")
        assert all(w == "edge" for w in winners[first_edge:])
    return table


def bench_f5_edge_vs_cloud():
    adequacy = run_f5a()
    cost = run_f5b()
    emit(adequacy)
    emit(cost)

    # Serverless per-job cost is intensity-independent (pay per use);
    # edge per-job cost falls as utilisation grows (amortisation).
    edge_costs = cost.column("edge $/job")
    assert all(a > b for a, b in zip(edge_costs, edge_costs[1:]))


if __name__ == "__main__":
    emit(run_f5a())
    emit(run_f5b())
