"""T4 — CI/CD pipeline overhead and the canary regression gate.

Two questions:

1. How much pipeline time do the offloading stages (profile, partition,
   allocate, deploy-canary, canary) add on top of a conventional
   build+test pipeline?
2. Does the canary gate actually stop a demand regression from reaching
   production?
"""

from dataclasses import replace

from repro import Environment
from repro.apps import ml_training_app, nightly_analytics_app, photo_backup_app
from repro.cicd import SourceRepository
from repro.core.pipeline import OffloadPipeline, PipelineConfig
from repro.metrics import Table

from _common import emit

APPS = [photo_backup_app, nightly_analytics_app, ml_training_app]
SEED = 9


def run_pipeline(app_factory, offload_enabled):
    env = Environment.build(seed=SEED, connectivity="broadband")
    app = app_factory()
    repo = SourceRepository(app.name, app)
    pipeline = OffloadPipeline(
        env,
        repo,
        config=PipelineConfig(
            canary_jobs=3, offload_stages_enabled=offload_enabled
        ),
    )
    return pipeline, pipeline.run_to_completion()


def run_t4_overhead() -> Table:
    table = Table(
        ["app", "mode", "total s", "build s", "test s", "profile s",
         "canary s", "deploy s", "promoted"],
        title="T4a: pipeline duration with and without offload stages",
        precision=1,
    )
    for app_factory in APPS:
        for mode, enabled in (("conventional", False), ("offload", True)):
            _pipeline, run = run_pipeline(app_factory, enabled)

            def stage_s(name):
                try:
                    return run.stage(name).duration_s
                except KeyError:
                    return None

            table.add_row(
                run.stages[0].detail if False else app_factory().name,
                mode, run.total_duration_s,
                stage_s("build"), stage_s("test"), stage_s("profile"),
                stage_s("canary"), stage_s("deploy-canary"), run.promoted,
            )
            assert run.promoted
    return table


def run_t4_gate() -> Table:
    table = Table(
        ["commit", "Δ train demand", "canary resp s", "canary $/job",
         "outcome"],
        title="T4b: canary gate vs an injected demand regression (ml_training)",
        precision=2,
    )
    env = Environment.build(seed=SEED + 1, connectivity="broadband")
    app = ml_training_app()
    repo = SourceRepository(app.name, app)
    pipeline = OffloadPipeline(
        env, repo,
        config=PipelineConfig(canary_jobs=3, regression_threshold=0.30),
    )
    baseline = pipeline.run_to_completion()
    table.add_row("v1 (baseline)", "-", baseline.canary_mean_response_s,
                  baseline.canary_mean_cost_usd,
                  "promoted" if baseline.promoted else "abandoned")

    train = app.component("train")
    for label, factor in (("v2 (+500% train)", 6.0), ("v3 (-10% train)", 0.9)):
        changed = app.with_component(
            replace(train, work_gcycles=train.work_gcycles * factor,
                    work_gcycles_per_mb=train.work_gcycles_per_mb * factor)
        )
        repo.commit(changed, label)
        run = pipeline.run_to_completion()
        table.add_row(label, f"{factor:+.1f}x", run.canary_mean_response_s,
                      run.canary_mean_cost_usd,
                      "promoted" if run.promoted else "abandoned")
        if factor > 1.5:
            assert not run.promoted, "regression must be caught"
        else:
            assert run.promoted, "improvement must pass the gate"
    assert baseline.promoted
    return table


def bench_t4_cicd():
    overhead = run_t4_overhead()
    gate = run_t4_gate()
    emit(overhead)
    emit(gate)

    # The offload stages cost real time but stay within an order of
    # magnitude of the conventional pipeline for every app.
    totals = {}
    for row in overhead.rows:
        totals.setdefault(row[0], {})[row[1]] = row[2]
    for app_name, modes in totals.items():
        assert modes["offload"] < 20 * modes["conventional"], app_name


if __name__ == "__main__":
    emit(run_t4_overhead())
    emit(run_t4_gate())
