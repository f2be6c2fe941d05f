"""Deterministic discrete-event simulation kernel.

This package provides the substrate every other simulator in :mod:`repro`
runs on: a simulated clock, an event heap, generator-based processes, and
contended resources.  The design follows the classic event-list paradigm
(as used by SimPy, OMNeT++ and EdgeCloudSim) but is self-contained and
fully deterministic: events scheduled for the same timestamp fire in
insertion order, and all randomness is injected through
:class:`~repro.sim.rng.RngStream` objects.

Typical usage::

    from repro.sim import Simulator

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)
        print("done at", sim.now)

    sim.spawn(worker(sim))
    sim.run()
"""

from repro import _lazy_exports

_EXPORTS = {
    "AllOf": "events",
    "AnyOf": "events",
    "Container": "resources",
    "Event": "events",
    "EventAlreadyTriggered": "events",
    "Interrupt": "events",
    "Process": "kernel",
    "Resource": "resources",
    "RngStream": "rng",
    "SeedSequenceRegistry": "rng",
    "SimulationError": "kernel",
    "Simulator": "kernel",
    "Timeout": "events",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
