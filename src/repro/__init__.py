"""repro — serverless computational offloading for non-time-critical
applications.

A complete, simulation-backed implementation of the framework proposed in
R. Patsch, *Computational Offloading for Non-Time-Critical Applications*
(ICDCS 2022): demand determination, serverless resource allocation, code
partitioning, delay-tolerant scheduling, and CI/CD-integrated deployment,
together with every substrate needed to evaluate them (discrete-event
kernel, network/device/serverless/edge simulators, workload generators).

Quickstart::

    from repro import Environment, OffloadController, photo_backup_app, Job

    env = Environment.build(seed=42, connectivity="4g")
    controller = OffloadController(env, photo_backup_app())
    controller.profile_offline()
    controller.plan(input_mb=4.0)
    report = controller.run_workload(
        [Job(controller.app, input_mb=4.0, deadline=3600.0)]
    )
    print(report.mean_response_s, report.total_cloud_cost_usd)
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` (PEP 562) of the
    package whose globals are *namespace*.

    *table* maps each public name to the module that defines it,
    relative to the package.  Importing the package loads none of those
    modules: a name's module is imported the first time the name is
    read, and the value is then stored in *namespace*, so a process
    loads only the code it uses and later reads are plain lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(
            import_module(f"{package}.{module}"), name
        )
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, list(table)


_EXPORTS = {
    "AppGraph": "apps.graph",
    "Component": "apps.graph",
    "ControllerReport": "core.controller",
    "CostWindowScheduler": "core.scheduler",
    "DataFlow": "apps.graph",
    "DeadlineBatcher": "core.scheduler",
    "DegradationPolicy": "faults.policy",
    "DemandModel": "core.demand",
    "EagerScheduler": "core.scheduler",
    "Environment": "core.controller",
    "FaultInjector": "faults.injector",
    "FaultKind": "faults.schedule",
    "FaultSchedule": "faults.schedule",
    "FaultWindow": "faults.schedule",
    "FunctionSpec": "serverless.function",
    "Job": "apps.jobs",
    "JobResult": "apps.jobs",
    "MemoryAllocator": "core.allocation",
    "MinCutPartitioner": "core.partitioning",
    "ObjectiveWeights": "core.partitioning",
    "OffloadController": "core.controller",
    "OffloadPipeline": "core.pipeline",
    "Partition": "core.partitioning",
    "PartitionContext": "core.partitioning",
    "ServerlessPlatform": "serverless.platform",
    "Simulator": "sim.kernel",
    "inject_faults": "faults.injector",
    "ml_training_app": "apps.catalog",
    "nightly_analytics_app": "apps.catalog",
    "photo_backup_app": "apps.catalog",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
