"""Cloud object storage: the data plane between offloaded components.

Real offloading frameworks stage intermediate data in an object store
(S3-class): uploads land there, cloud functions read/write it for free
or cheaply within the region, and *egress* back to the device is the
expensive direction.  This package models exactly that price structure
plus request latency, so partitioning decisions can account for data
gravity.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ObjectNotFoundError": "objectstore",
    "ObjectStore": "objectstore",
    "StoragePricing": "objectstore",
    "StoredObject": "objectstore",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
