"""Post-run analysis and planning calculators.

Downstream users keep re-deriving the same quantities from reports and
planning models; this package provides them directly:

* :func:`crossover_bandwidth` — the uplink rate at which offloading
  starts beating local execution (the analytic form of benchmark F1);
* :func:`edge_breakeven_rate` — the workload intensity at which a
  provisioned edge node becomes cheaper than serverless (F5b's knee);
* :func:`compare_reports` / :func:`savings_table` — relative deltas
  between policy runs;
* :func:`energy_summary` — fleet-level per-activity energy aggregation.
"""

from repro import _lazy_exports

_EXPORTS = {
    "compare_reports": "calculators",
    "crossover_bandwidth": "calculators",
    "edge_breakeven_rate": "calculators",
    "energy_summary": "calculators",
    "savings_table": "calculators",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
