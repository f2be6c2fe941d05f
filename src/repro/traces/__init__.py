"""Workload-arrival and bandwidth-trace generators.

Non-time-critical offloading decisions hinge on *when* work arrives and
*how good* the uplink is at that moment.  This package generates both
signals reproducibly:

* arrival processes — :class:`PoissonArrivals`, :class:`DiurnalArrivals`
  (sinusoidally modulated Poisson), :class:`BurstyArrivals` (two-state
  MMPP) and :class:`DeterministicArrivals`;
* bandwidth traces — :class:`ConstantBandwidth`, :class:`StepBandwidth`,
  :class:`MarkovBandwidth` (Gilbert–Elliott style good/bad channel) and
  :class:`DiurnalBandwidth`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ArrivalProcess": "arrivals",
    "BandwidthTrace": "bandwidth",
    "BurstyArrivals": "arrivals",
    "ConstantBandwidth": "bandwidth",
    "DeterministicArrivals": "arrivals",
    "DiurnalArrivals": "arrivals",
    "DiurnalBandwidth": "bandwidth",
    "MarkovBandwidth": "bandwidth",
    "PoissonArrivals": "arrivals",
    "StepBandwidth": "bandwidth",
    "load_report_summary": "replay",
    "load_workload": "replay",
    "save_report": "replay",
    "save_workload": "replay",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
