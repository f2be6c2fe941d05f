"""Metric collection and reporting.

Simulators and policies record observations into a :class:`MetricRegistry`;
the benchmark harness turns registries into the tables printed for each
experiment.  The primitives are deliberately simple and dependency-free:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — last-written values;
* :class:`Summary` — streaming mean/min/max/stddev plus exact quantiles
  (observations are retained; simulations here are small enough);
* :class:`TimeWeightedAverage` — averages weighted by how long a value held
  (queue lengths, battery levels);
* :class:`MetricRegistry` — a namespace of the above;
* :func:`render_table` / :class:`Table` — fixed-width table formatting used
  by every benchmark to print paper-style rows.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Counter": "collectors",
    "Gauge": "collectors",
    "MetricRegistry": "collectors",
    "Summary": "collectors",
    "Table": "tables",
    "TimeWeightedAverage": "collectors",
    "ascii_bars": "charts",
    "ascii_line": "charts",
    "render_table": "tables",
    "stable_digest": "collectors",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
