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

from repro import _lazy_exports

_EXPORTS = {
    "DEFAULT_CACHE_DIR": "runner",
    "SweepEntry": "runner",
    "SweepProgress": "runner",
    "SweepResult": "runner",
    "SweepRunner": "runner",
    "SweepSpec": "spec",
    "WorkerDiedError": "runner",
    "canonical_json": "spec",
    "code_digest": "spec",
    "config_hash": "spec",
    "config_key": "spec",
    "resolve_scenario": "spec",
    "run_sweep": "runner",
    "scenario_ref": "spec",
    "write_atomic": "spec",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
