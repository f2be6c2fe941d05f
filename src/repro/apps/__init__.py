"""Application model: components, call graphs, and concrete workloads.

An application is a DAG of :class:`Component`\\ s (units of partitionable
code) connected by :class:`DataFlow` edges (bytes that must move if the
two endpoints land on different sides of the partition).  Work and data
both scale with the job's input size, which is what makes the demand
determination contribution (C1) non-trivial.

Three concrete applications mirror the non-time-critical use cases the
paper's framing motivates (:mod:`repro.apps.catalog`), and
:mod:`repro.apps.generators` synthesises random graph families for the
partitioning ablations.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AppGraph": "graph",
    "Component": "graph",
    "DataFlow": "graph",
    "Job": "jobs",
    "JobResult": "jobs",
    "document_ocr_app": "catalog",
    "fanout_fanin_app": "generators",
    "layered_random_app": "generators",
    "linear_pipeline_app": "generators",
    "ml_training_app": "catalog",
    "nightly_analytics_app": "catalog",
    "photo_backup_app": "catalog",
    "random_tree_app": "generators",
    "video_highlights_app": "catalog",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
