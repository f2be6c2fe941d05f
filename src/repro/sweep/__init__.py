"""Parallel scenario sweeps: fan out, merge deterministically, cache.

The evaluation side of the reproduction is grid-shaped — parameter axes
crossed with seed replications, every cell an independent simulation.
:class:`SweepSpec` declares such a grid, :class:`SweepRunner` fans it out
across worker processes, merges results ordered by canonical config key
(byte-identical output regardless of worker count), and caches completed
cells on disk keyed by config hash so re-runs only execute the delta.

Quickstart::

    from repro.sweep import SweepRunner, SweepSpec

    spec = SweepSpec(
        scenario="repro.sweep.scenarios:offload_run",
        base={"app": "photo_backup", "jobs": 4},
        grid={"connectivity": ["3g", "4g", "wifi"]},
        seeds=3,
    )
    result = SweepRunner(spec, workers=4, cache_dir=".sweep_cache").run()
    print(result.merged_json())

The same flow is exposed on the command line as ``python -m repro sweep``.
"""

from repro.sweep.runner import (
    DEFAULT_CACHE_DIR,
    SweepEntry,
    SweepProgress,
    SweepResult,
    SweepRunner,
    run_sweep,
)
from repro.sweep.spec import (
    SweepSpec,
    canonical_json,
    code_digest,
    config_hash,
    config_key,
    resolve_scenario,
    scenario_ref,
    write_atomic,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SweepEntry",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "canonical_json",
    "code_digest",
    "config_hash",
    "config_key",
    "resolve_scenario",
    "run_sweep",
    "scenario_ref",
    "write_atomic",
]
