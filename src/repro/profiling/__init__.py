"""Profiling substrate: measuring computational demands.

Contribution C1 ("determine computational demands") needs measurements to
learn from.  The :class:`Profiler` runs an application's components over a
set of input sizes and records noisy demand observations — the simulation
stand-in for instrumented profiling runs in a CI environment.  The
:class:`OnlineProfiler` harvests the same observations from production
executions so estimators keep learning after deployment.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DemandObservation": "profiler",
    "OnlineProfiler": "profiler",
    "Profiler": "profiler",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
