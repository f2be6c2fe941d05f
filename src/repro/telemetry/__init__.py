"""Telemetry: span tracing, labeled metrics, exporters, run reports.

The observability layer of the reproduction.  A
:class:`~repro.telemetry.tracer.Tracer` attached to a simulator records
nested spans for every job's lifecycle (plan → schedule → upload →
cold start → execute → retry → download) plus fault-window annotations;
a :class:`~repro.telemetry.registry.LabeledMetricsRegistry` keeps
labeled counters/gauges/summaries alongside; exporters render Chrome
trace-event JSON (Perfetto-loadable) and Prometheus text; and
:mod:`~repro.telemetry.report` turns a trace into per-phase
critical-path attribution.

Everything is deterministic on the simulated clock — two same-seed runs
emit byte-identical trace files — and a detached (null) tracer costs one
attribute read per instrumented operation::

    from repro.telemetry import Tracer, attach_tracer, build_report

    env = Environment.build(seed=7)
    tracer = attach_tracer(env)
    ...  # plan + run a workload
    print(build_report(tracer).render())
"""

from repro import _lazy_exports

_EXPORTS = {
    "ATTRIBUTION_PRECEDENCE": "report",
    "CHROME_TRACE_SCHEMA": "exporters",
    "JobAttribution": "report",
    "LabeledMetricsRegistry": "registry",
    "NULL_TRACER": "tracer",
    "NullTracer": "tracer",
    "RunReport": "report",
    "Span": "tracer",
    "Tracer": "tracer",
    "attach_tracer": "tracer",
    "build_report": "report",
    "dumps_chrome_trace": "exporters",
    "load_chrome_trace": "exporters",
    "report_from_file": "report",
    "to_chrome_trace": "exporters",
    "write_chrome_trace": "exporters",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
