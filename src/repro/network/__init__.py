"""Network models: links, paths, and standard connectivity profiles.

A :class:`Link` combines propagation latency, a (possibly time-varying)
bandwidth trace and a per-request protocol overhead, and serialises
concurrent transfers through a configurable number of channels — the model
used by EdgeCloudSim-class simulators.  A :class:`NetworkPath` chains links
(UE → radio access → WAN → cloud).  :mod:`repro.network.profiles` provides
calibrated presets (3G/4G/5G/WiFi/broadband) used across the benchmarks.
"""

from repro import _lazy_exports

_EXPORTS = {
    "CONNECTIVITY_PROFILES": "profiles",
    "ConnectivityProfile": "profiles",
    "Link": "link",
    "NetworkPath": "link",
    "TransferResult": "link",
    "cloud_path": "profiles",
    "edge_path": "profiles",
    "profile": "profiles",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
