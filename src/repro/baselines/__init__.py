"""Baseline policies the evaluation compares against.

* :func:`local_only_controller` / :func:`full_offload_controller` — the
  two trivial placements every offloading paper brackets itself with;
* :class:`RandomPartitioner` — sanity floor for partition quality;
* :class:`MyopicLatencyPartitioner` — per-component greedy rule
  ("offload iff remote execution plus transfer beats local"), the naive
  heuristic practitioners reach for first;
* :class:`EdgeEnvironment` / :class:`EdgeJobRunner` — the
  edge-computing alternative (provisioned node at the access network)
  the paper argues non-time-critical workloads do not need.
"""

from repro import _lazy_exports

_EXPORTS = {
    "EdgeEnvironment": "edge_runner",
    "EdgeJobRunner": "edge_runner",
    "MyopicLatencyPartitioner": "policies",
    "RandomPartitioner": "policies",
    "full_offload_controller": "policies",
    "local_only_controller": "policies",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
