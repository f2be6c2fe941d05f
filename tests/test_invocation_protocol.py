"""The one-generator-per-operation protocol of invocations and transfers.

``ServerlessPlatform.invoke`` and ``NetworkPath.transfer`` are the
operations' generator bodies: a caller that only waits delegates into
them, one that races or joins spawns them.  Three things must survive
that:

* the counted names.  A profiler that counts calls to ``invoke`` and
  ``transfer`` (as the E1 benchmark's tracer does) must still read one
  call per invocation attempt and per path transfer, on the plain
  controller path and on the degraded path;
* interrupt safety.  The fallback budget interrupts only a hedged
  episode, never a process with an invocation running inline; an
  unhedged episode runs its attempts inline and is never interrupted.
  Either way an abandoned invocation still completes, bills and frees
  its sandbox;
* loud misuse.  Yielding the generator itself, instead of delegating
  into it or spawning it, raises rather than hangs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.faults import DegradationPolicy
from repro.fleet import run_sharded
from repro.network.link import NetworkPath
from repro.serverless import FunctionSpec, InvocationRequest
from repro.serverless.platform import ServerlessPlatform
from repro.sim import SimulationError, Simulator
from repro.sweep.scenarios import offload_report
from repro.testing.golden import golden_fleet_spec


@pytest.fixture
def counted(monkeypatch):
    """Count calls of the two operation names the way a wrapping
    profiler does, and keep every platform and path built meanwhile."""
    calls: Counter = Counter()
    built = {"platforms": [], "paths": []}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def keeping(key, init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[key].append(self)

        return wrapper

    monkeypatch.setattr(
        ServerlessPlatform, "invoke", counting("invoke", ServerlessPlatform.invoke)
    )
    monkeypatch.setattr(
        NetworkPath, "transfer", counting("transfer", NetworkPath.transfer)
    )
    monkeypatch.setattr(
        OffloadController,
        "_degraded_cloud_episode",
        counting("episode", OffloadController._degraded_cloud_episode),
    )
    monkeypatch.setattr(
        ServerlessPlatform, "__init__",
        keeping("platforms", ServerlessPlatform.__init__),
    )
    monkeypatch.setattr(
        NetworkPath, "__init__", keeping("paths", NetworkPath.__init__)
    )
    return calls, built


def recorded_attempts(platforms) -> float:
    """Attempts the platforms recorded: completed invocations plus failed
    and outage-rejected ones (counters summed once per registry key)."""
    total = float(sum(len(p.invocations) for p in platforms))
    keys = {
        (id(p.metrics), f"{p.name}.{kind}"): p.metrics
        for p in platforms
        for kind in ("failures", "outage_rejections")
    }
    for (_, key), registry in keys.items():
        total += registry.snapshot().get(key, 0.0)
    return total


def recorded_path_transfers(paths) -> float:
    """Path transfers the link metrics recorded: every path transfer
    crosses its path's first link exactly once."""
    keys = {
        (id(p.links[0].metrics), f"{p.links[0].name}.transfers"): p.links[0].metrics
        for p in paths
    }
    return sum(
        registry.snapshot().get(key, 0.0) for (_, key), registry in keys.items()
    )


class TestCountedNames:
    def test_offload_run_counts_one_call_per_attempt_and_transfer(self, counted):
        """The E1 ``offload`` workload: 400 photo_backup jobs on 4g."""
        calls, built = counted
        env = Environment.build(seed=0, connectivity="4g")
        result = offload_report(env, {"jobs": 400, "spacing_s": 60.0})
        assert result["jobs_completed"] == 400
        assert calls["invoke"] == recorded_attempts(built["platforms"]) == 2000
        assert calls["transfer"] == recorded_path_transfers(built["paths"]) == 800

    def test_fleet_remediated_counts_through_hedge_lanes(self, counted):
        """Remediation switches on the degraded path, whose episodes are
        processes of their own; the counts still match the ledgers."""
        calls, built = counted
        run_sharded(golden_fleet_spec("pairs", remediate=True))
        assert calls["episode"] > 0
        assert calls["invoke"] == recorded_attempts(built["platforms"]) > 0
        assert calls["transfer"] == recorded_path_transfers(built["paths"]) > 0


class TestInterruptSafety:
    BUDGET_S = 1.0

    def test_abandoned_lane_completes_bills_and_frees_its_sandbox(self):
        env = Environment.build_custom(seed=7)
        controller = OffloadController(
            env,
            photo_backup_app(),
            degradation=DegradationPolicy(fallback_after_s=self.BUDGET_S),
        )
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        report = controller.run_workload(
            [Job(controller.app, input_mb=2.0, deadline=3600.0)]
        )
        env.sim.run()  # let every abandoned lane finish
        (result,) = report.results
        assert not report.failures
        platform = env.platform
        records = platform.invocations
        # The budget expired while these invocations were executing.
        abandoned = [
            r for r in records
            if r.started_at < r.submitted_at + self.BUDGET_S < r.finished_at
        ]
        assert abandoned
        assert env.metrics.snapshot()["photo_backup.fallbacks"] == len(abandoned)
        assert len(records) == len(set(r.request.function for r in records)) == 5
        # Each abandoned invocation billed the ledger, not the job.
        assert platform.total_cost == pytest.approx(sum(r.cost for r in records))
        assert result.cloud_cost_usd == pytest.approx(
            sum(r.cost for r in records if r not in abandoned)
        )
        # ... and handed its sandbox back to the warm pool.
        for function in platform.deployed_functions():
            instances = platform._state(function).instances
            assert instances and not any(i.busy for i in instances)


def test_yielding_a_bare_operation_fails_loudly():
    """A caller that forgets ``yield from`` (or ``sim.spawn``) yields the
    generator itself; the kernel refuses it instead of hanging."""
    sim = Simulator()
    platform = ServerlessPlatform(sim)
    platform.deploy(FunctionSpec("f", memory_mb=1769, package_mb=0))

    def forgetful():
        yield platform.invoke(InvocationRequest("f", 1.0))

    with pytest.raises(SimulationError, match="must yield Event instances"):
        sim.run(until=sim.spawn(forgetful()))
