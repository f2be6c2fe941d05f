"""A process loads only the code it runs.

Every package ``__init__`` exports its public names lazily (PEP 562):
importing a package loads none of its submodules, and reading a name
imports the one module that defines it.  The import probes run in fresh
interpreters with bytecode writing off, the way E1 starts each process,
so what they see loaded is exactly what the entry point pulled in.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: What E1 imports before its first workload (``e1bench/workloads.py``).
E1_IMPORTS = (
    "from repro.fleet import FleetTopology, ShardedFleetSpec, run_sharded\n"
    "from repro.sweep import canonical_json\n"
    "from repro.sweep.scenarios import offload_run\n"
)

#: Modules no E1 workload runs a function of.
NOT_RUN_BY_E1 = (
    "repro.core.pipeline",
    "repro.core.workflow_runner",
    "repro.serverless.workflow",
    "repro.perf.bench",
    "repro.perf.check",
    "repro.telemetry.exporters",
    "repro.telemetry.report",
    "repro.monitor.diff",
    "repro.monitor.observed",
    "repro.traces.arrivals",
    "repro.traces.replay",
    "repro.metrics.charts",
    "repro.metrics.tables",
    "repro.apps.generators",
)

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def loaded_after(statements: str) -> Set[str]:
    """The modules a fresh interpreter holds after ``statements``."""
    code = f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_importing_repro_loads_no_submodule():
    loaded = loaded_after("import repro")
    assert "repro" in loaded
    assert sorted(m for m in loaded if m.startswith("repro.")) == []


def test_e1_imports_load_only_what_e1_runs():
    loaded = loaded_after(E1_IMPORTS)
    assert "repro.fleet.sharded" in loaded  # the probe saw the imports
    assert "multiprocessing" not in loaded
    assert "repro.sweep.fanout" not in loaded
    assert sorted(m for m in NOT_RUN_BY_E1 if m in loaded) == []
    assert sorted(
        m for m in loaded if m == "repro.cicd" or m.startswith("repro.cicd.")
    ) == []


def test_fleet_fanout_loads_no_pool_machinery():
    """A 2-worker fan-out is processes and pipes: no pool, no queues,
    no locks."""
    loaded = loaded_after(
        E1_IMPORTS
        + "spec = ShardedFleetSpec(topology=FleetTopology.uniform(2, 1, seed=0))\n"
        "assert run_sharded(spec, n_shards=2, workers=2).exact\n"
    )
    assert "multiprocessing.connection" in loaded  # the probe fanned out
    pool_machinery = (
        "multiprocessing.pool",
        "multiprocessing.queues",
        "multiprocessing.synchronize",
        "queue",
    )
    assert sorted(m for m in pool_machinery if m in loaded) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports(name):
    package = importlib.import_module(name)
    table = package._EXPORTS
    exported = [n for n in package.__all__ if n != "__version__"]
    assert exported == list(table)
    listed = dir(package)
    for public, module in table.items():
        defining = importlib.import_module(f"{name}.{module}")
        # A name that shadowed a submodule would resolve to the module.
        assert getattr(package, public) is getattr(defining, public), public
        assert public in listed
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
