"""Serverless (FaaS) platform simulator.

Models the platform mechanics the paper's allocation contribution targets:

* **memory tiers** with CPU proportional to memory (AWS-Lambda-style: one
  full vCPU at 1769 MB, fractional below, multiple above);
* **cold vs warm starts** with a keep-alive instance pool;
* **per-function concurrency limits** with FIFO queueing;
* **billing** per request plus GB-seconds with millisecond rounding.

The compute-duration model applies Amdahl's law to the vCPU count, which
produces the empirically observed "duration flattens, cost keeps rising"
shape that makes memory-size optimisation non-trivial.
"""

from repro import _lazy_exports

_EXPORTS = {
    "BillingModel": "billing",
    "CostBreakdown": "billing",
    "FunctionSpec": "function",
    "HedgedInvocation": "retry",
    "Invocation": "function",
    "InvocationFailedError": "platform",
    "InvocationRequest": "function",
    "PlatformConfig": "platform",
    "PlatformOutageError": "platform",
    "RetriedInvocation": "retry",
    "RetriesExhaustedError": "retry",
    "RetryPolicy": "retry",
    "SandboxReclaimedError": "platform",
    "ServerlessPlatform": "platform",
    "ThrottledError": "platform",
    "WorkflowDefinition": "workflow",
    "WorkflowEngine": "workflow",
    "WorkflowExecution": "workflow",
    "WorkflowStep": "workflow",
    "execution_time": "function",
    "invoke_hedged": "retry",
    "invoke_with_retries": "retry",
    "vcpus_for_memory": "function",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
