"""Scenario-driven fault injection and graceful degradation.

The subsystem has three layers:

* :mod:`repro.faults.schedule` — :class:`FaultWindow` /
  :class:`FaultSchedule`: *what* goes wrong and *when*, normalized so
  overlapping windows of one kind merge, plus the seeded
  :meth:`FaultSchedule.chaos` campaign generator;
* :mod:`repro.faults.injector` — :class:`FaultInjector` /
  :func:`inject_faults`: *realising* a schedule inside an environment
  (link traces, platform outages/reclamation/stragglers, battery
  brownouts);
* :mod:`repro.faults.policy` — :class:`DegradationPolicy`: *how* the
  controller responds (outage-aware backoff, hedged invocations,
  fallback-to-local).

Everything is driven by named :class:`~repro.sim.rng.RngStream` draws, so
a chaos campaign under a fixed seed is bit-reproducible end to end.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DegradationPolicy": "policy",
    "FaultInjector": "injector",
    "FaultKind": "schedule",
    "FaultSchedule": "schedule",
    "FaultWindow": "schedule",
    "FaultedBandwidth": "injector",
    "LINK_KINDS": "schedule",
    "PlatformFaultModel": "injector",
    "inject_faults": "injector",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
