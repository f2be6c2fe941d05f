"""Fleet simulation: many devices offloading onto one serverless platform.

The serverless pitch is strongest at fleet scale: a thousand phones each
running a nightly job share one pool of functions, so one user's
invocation keeps the sandboxes warm for the next — density replaces
provisioning.  :class:`FleetEnvironment` builds N devices (optionally on
mixed connectivity) over a *shared* simulator and platform;
:class:`FleetController` plans once per device and drives the combined
workload, reporting per-device and aggregate outcomes.

Past a few thousand UEs one process stops being enough:
:mod:`repro.fleet.topology` describes the fleet as zones with warm-pool
coupling links, and :mod:`repro.fleet.sharded` partitions it across
worker processes with a deterministic, byte-stable merge.
"""

from repro import _lazy_exports

_EXPORTS = {
    "FleetController": "fleet",
    "FleetEnvironment": "fleet",
    "FleetReport": "fleet",
    "FleetTopology": "topology",
    "ShardPlan": "topology",
    "ShardedFleetResult": "sharded",
    "ShardedFleetSpec": "sharded",
    "Zone": "topology",
    "partition_topology": "topology",
    "reference_report": "sharded",
    "run_sharded": "sharded",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
