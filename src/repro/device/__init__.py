"""User Equipment (UE) model: CPU, radio energy, battery.

The UE is the constrained side of the offloading trade-off the paper
starts from.  It provides:

* a multi-core CPU executing work measured in gigacycles, contended
  through the kernel's :class:`~repro.sim.resources.Resource`;
* an energy model with distinct active/idle/transmit/receive power draws
  (the standard mobile model from the MAUI/CloneCloud line of work);
* a battery as a :class:`~repro.sim.resources.Container` so experiments
  can run devices to empty.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DeviceSpec": "ue",
    "EnergyModel": "energy",
    "LocalExecution": "ue",
    "UserEquipment": "ue",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
