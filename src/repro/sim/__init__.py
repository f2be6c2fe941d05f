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

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventAlreadyTriggered,
    Interrupt,
    Timeout,
)
from repro.sim.kernel import Process, SimulationError, Simulator
from repro.sim.resources import Container, Resource
from repro.sim.rng import RngStream, SeedSequenceRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Process",
    "Resource",
    "RngStream",
    "SeedSequenceRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
]
