"""Edge-computing baseline substrate.

The paper's framing is that Edge Computing wins on response time but
"a significant drawback ... is the required infrastructure".  This package
models exactly that trade-off: an :class:`EdgeNode` is a provisioned,
always-on machine close to the UE — low latency, bounded capacity, and a
bill that accrues with wall-clock time whether or not it is used, in
contrast to the serverless platform's strictly pay-per-use billing.
"""

from repro import _lazy_exports

_EXPORTS = {
    "EdgeExecution": "node",
    "EdgeNode": "node",
    "EdgeNodeSpec": "node",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
