"""Function specifications and the compute-duration model.

The duration model is the load-bearing piece: CPU capacity scales linearly
with the memory size (one full vCPU at ``full_vcpu_mb``), and a function's
ability to exploit multiple vCPUs is governed by its ``parallel_fraction``
through Amdahl's law.  This reproduces the published Lambda behaviour that
motivates memory-size optimisation: durations fall steeply up to one vCPU,
then flatten for serial code while the GB-second price keeps climbing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

#: Memory at which the platform grants exactly one full vCPU (Lambda: 1769 MB).
FULL_VCPU_MB = 1769.0

#: Reference core speed used to convert work (gigacycles) into seconds.
REFERENCE_CYCLES_PER_SECOND = 2.4e9

#: The platform never grants more vCPUs than this (Lambda: 6 at 10 GB).
MAX_VCPUS = 6.0

#: The discrete memory sizes a function may be configured with.
STANDARD_MEMORY_TIERS_MB: Tuple[float, ...] = (
    128, 256, 512, 768, 1024, 1536, 1769, 2048, 3072, 4096, 6144, 8192, 10240,
)


def vcpus_for_memory(memory_mb: float, full_vcpu_mb: float = FULL_VCPU_MB) -> float:
    """Fractional vCPU count granted at a memory size."""
    if memory_mb <= 0:
        raise ValueError(f"memory must be > 0, got {memory_mb}")
    return min(memory_mb / full_vcpu_mb, MAX_VCPUS)


def amdahl_speedup(cores: float, parallel_fraction: float) -> float:
    """Amdahl's-law speedup at ``cores`` for a given parallel fraction.

    ``cores`` may be fractional: below one core the whole program slows
    down proportionally (a 0.5-vCPU slot runs everything at half speed),
    so the speedup is simply ``cores``.
    """
    if not 0.0 <= parallel_fraction <= 1.0:
        raise ValueError(
            f"parallel_fraction must be in [0, 1], got {parallel_fraction}"
        )
    if cores <= 0:
        raise ValueError(f"cores must be > 0, got {cores}")
    if cores <= 1.0:
        return cores
    serial = 1.0 - parallel_fraction
    return 1.0 / (serial + parallel_fraction / cores)


def execution_time(
    work_gcycles: float,
    memory_mb: float,
    parallel_fraction: float = 0.0,
    full_vcpu_mb: float = FULL_VCPU_MB,
    cycles_per_second: float = REFERENCE_CYCLES_PER_SECOND,
) -> float:
    """Seconds to execute ``work_gcycles`` at a given memory size."""
    if work_gcycles < 0:
        raise ValueError(f"work must be >= 0, got {work_gcycles}")
    cores = vcpus_for_memory(memory_mb, full_vcpu_mb)
    speedup = amdahl_speedup(cores, parallel_fraction)
    baseline_s = work_gcycles * 1e9 / cycles_per_second
    return baseline_s / speedup


@dataclass(frozen=True)
class FunctionSpec:
    """Deployment-time configuration of one serverless function.

    Parameters
    ----------
    name:
        Unique function name on the platform.
    memory_mb:
        Configured memory size; also determines vCPU share.
    package_mb:
        Deployment-package size; drives cold-start duration.
    parallel_fraction:
        Amdahl parallel fraction of the function's code.
    concurrency_limit:
        Maximum simultaneously running instances (None = platform default).
    """

    name: str
    memory_mb: float = 1024.0
    package_mb: float = 50.0
    parallel_fraction: float = 0.0
    concurrency_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError(f"memory must be > 0, got {self.memory_mb}")
        if self.package_mb < 0:
            raise ValueError(f"package size must be >= 0, got {self.package_mb}")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if self.concurrency_limit is not None and self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1")

    def with_memory(self, memory_mb: float) -> "FunctionSpec":
        """A copy of this spec at a different memory size."""
        return replace(self, memory_mb=memory_mb)

    def duration_for(self, work_gcycles: float) -> float:
        """Execution time of ``work_gcycles`` under this configuration."""
        return execution_time(
            work_gcycles, self.memory_mb, self.parallel_fraction
        )

    def work_for_duration(self, seconds: float) -> float:
        """Gigacycles that a run of ``seconds`` corresponds to.

        The exact inverse of :meth:`duration_for` — the duration model
        is linear in work, so observed wall time recovers demand without
        an oracle.  This is how the observed-signal mode turns monitored
        execution durations back into demand observations (a straggler's
        inflated runtime honestly inflates the estimate).
        """
        if seconds < 0:
            raise ValueError(f"duration must be >= 0, got {seconds}")
        cores = vcpus_for_memory(self.memory_mb)
        speedup = amdahl_speedup(cores, self.parallel_fraction)
        return seconds * speedup * REFERENCE_CYCLES_PER_SECOND / 1e9


class _InvocationRequestFields(NamedTuple):
    function: str
    work_gcycles: float
    payload_bytes: float = 0.0
    tag: Optional[str] = None
    trace_parent: Optional[object] = None


class InvocationRequest(_InvocationRequestFields):
    """One unit of work submitted to a function.

    ``trace_parent`` optionally carries the caller's telemetry span so
    the platform and retry layers parent their spans (queue wait, cold
    start, execution, backoff) under the requesting component; ``None``
    (the default, and always when tracing is disabled) records nothing.
    Equality and hashing ignore it: two requests for the same work are
    the same request whoever traces them.
    """

    __slots__ = ()

    def __new__(
        cls,
        function: str,
        work_gcycles: float,
        payload_bytes: float = 0.0,
        tag: Optional[str] = None,
        trace_parent: Optional[object] = None,
    ) -> "InvocationRequest":
        if work_gcycles < 0:
            raise ValueError("work must be >= 0")
        if payload_bytes < 0:
            raise ValueError("payload must be >= 0")
        return tuple.__new__(
            cls, (function, work_gcycles, payload_bytes, tag, trace_parent)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:4] == other[:4]  # type: ignore[index]

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:4] != other[:4]  # type: ignore[index]

    def __hash__(self) -> int:
        return hash(self[:4])


class Invocation(NamedTuple):
    """The completed record of one invocation."""

    request: InvocationRequest
    submitted_at: float
    started_at: float
    finished_at: float
    cold_start: bool
    memory_mb: float
    billed_duration_s: float
    cost: float

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for capacity (includes cold-start setup)."""
        return self.started_at - self.submitted_at

    @property
    def execution_time(self) -> float:
        """Seconds the function body actually ran."""
        return self.finished_at - self.started_at

    @property
    def latency(self) -> float:
        """End-to-end seconds from submission to completion."""
        return self.finished_at - self.submitted_at


__all__ = [
    "FULL_VCPU_MB",
    "FunctionSpec",
    "Invocation",
    "InvocationRequest",
    "MAX_VCPUS",
    "REFERENCE_CYCLES_PER_SECOND",
    "STANDARD_MEMORY_TIERS_MB",
    "amdahl_speedup",
    "execution_time",
    "vcpus_for_memory",
]
