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

from repro.core.allocation import (
    AllocationDecision,
    MemoryAllocator,
    pareto_frontier,
)
from repro.core.controller import ControllerReport, Environment, OffloadController
from repro.core.demand import (
    BayesianLinearEstimator,
    DemandEstimator,
    DemandModel,
    DemandProfile,
    EwmaEstimator,
    MeanEstimator,
    QuantileEstimator,
    RegressionEstimator,
    StaticEstimator,
)
from repro.core.partitioning import (
    ExhaustivePartitioner,
    GreedyPartitioner,
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    Partitioner,
    TreeDPPartitioner,
    evaluate_partition,
)
from repro.core.pipeline import (
    OffloadPipeline,
    PipelineConfig,
    PipelineRun,
    StageResult,
)
from repro.core.scheduler import (
    BatteryAwareScheduler,
    CostWindowScheduler,
    DeadlineBatcher,
    EagerScheduler,
    Scheduler,
)
from repro.core.workflow_runner import WorkflowOffloadRunner, is_phase_shaped

__all__ = [
    "AllocationDecision",
    "BatteryAwareScheduler",
    "BayesianLinearEstimator",
    "ControllerReport",
    "CostWindowScheduler",
    "DeadlineBatcher",
    "DemandEstimator",
    "DemandModel",
    "DemandProfile",
    "EagerScheduler",
    "Environment",
    "EwmaEstimator",
    "ExhaustivePartitioner",
    "GreedyPartitioner",
    "MeanEstimator",
    "MemoryAllocator",
    "MinCutPartitioner",
    "ObjectiveWeights",
    "OffloadController",
    "OffloadPipeline",
    "Partition",
    "PartitionContext",
    "Partitioner",
    "PipelineConfig",
    "PipelineRun",
    "QuantileEstimator",
    "RegressionEstimator",
    "Scheduler",
    "StageResult",
    "StaticEstimator",
    "TreeDPPartitioner",
    "WorkflowOffloadRunner",
    "evaluate_partition",
    "is_phase_shaped",
    "pareto_frontier",
]
