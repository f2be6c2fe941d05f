"""The paper's primary contribution: serverless offloading for
non-time-critical applications.

The core package wires four mechanisms, one per contribution in the
abstract:

* :mod:`repro.core.demand` — determining computational demands (C1);
* :mod:`repro.core.allocation` — allocating serverless resources (C2);
* :mod:`repro.core.partitioning` — partitioning code between UE and
  cloud (C3);
* :mod:`repro.core.pipeline` — integration into a CI/CD deployment
  process (C4);
* :mod:`repro.core.scheduler` — exploiting non-time-criticality (C5);
* :mod:`repro.core.controller` — the end-to-end runtime combining all of
  the above over the simulated substrates.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AllocationDecision": "allocation",
    "BatteryAwareScheduler": "scheduler",
    "BayesianLinearEstimator": "demand",
    "ControllerReport": "controller",
    "CostWindowScheduler": "scheduler",
    "DeadlineBatcher": "scheduler",
    "DemandEstimator": "demand",
    "DemandModel": "demand",
    "DemandProfile": "demand",
    "EagerScheduler": "scheduler",
    "Environment": "controller",
    "JobRunner": "controller",
    "EwmaEstimator": "demand",
    "ExhaustivePartitioner": "partitioning",
    "GreedyPartitioner": "partitioning",
    "MeanEstimator": "demand",
    "MemoryAllocator": "allocation",
    "MinCutPartitioner": "partitioning",
    "ObjectiveWeights": "partitioning",
    "OffloadController": "controller",
    "OffloadPipeline": "pipeline",
    "Partition": "partitioning",
    "PartitionContext": "partitioning",
    "Partitioner": "partitioning",
    "PipelineConfig": "pipeline",
    "PipelineRun": "pipeline",
    "QuantileEstimator": "demand",
    "RegressionEstimator": "demand",
    "Scheduler": "scheduler",
    "StageResult": "pipeline",
    "StaticEstimator": "demand",
    "TreeDPPartitioner": "partitioning",
    "WorkflowOffloadRunner": "workflow_runner",
    "evaluate_partition": "partitioning",
    "is_phase_shaped": "workflow_runner",
    "pareto_frontier": "allocation",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
