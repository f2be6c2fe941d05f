"""The serverless platform simulator.

Implements the instance-pool mechanics that produce cold/warm start
behaviour:

* an invocation reuses a *warm* idle instance when one exists;
* otherwise, if the function is below its concurrency limit, a new
  instance is *cold started* (paying an initialisation delay that grows
  with the deployment-package size);
* otherwise the invocation queues FIFO until an instance frees up;
* idle instances expire after ``keep_alive_s`` (lazily collected, which is
  equivalent for a discrete-event run because expiry only matters at the
  next invocation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro.metrics import MetricRegistry
from repro.serverless.billing import BillingModel, CostBreakdown
from repro.serverless.function import (
    STANDARD_MEMORY_TIERS_MB,
    FunctionSpec,
    Invocation,
    InvocationRequest,
)
from repro.sim import Event, Simulator
from repro.sim.rng import RngStream
from repro.telemetry.tracer import PHASE_COLD_START, PHASE_EXECUTE, PHASE_QUEUE


class ThrottledError(RuntimeError):
    """Raised when a function's pending queue exceeds its bound."""


class InvocationFailedError(RuntimeError):
    """A transient execution failure (the platform survives).

    Carries enough context for retry logic: the function name, how long
    the failed attempt ran, and what it billed.
    """

    def __init__(
        self,
        function: str,
        ran_for_s: float,
        billed_usd: float,
        reason: str = "transient failure",
    ) -> None:
        super().__init__(
            f"{function}: {reason} after {ran_for_s:.3f}s"
        )
        self.function = function
        self.ran_for_s = ran_for_s
        self.billed_usd = billed_usd


class PlatformOutageError(InvocationFailedError):
    """The platform's zone is down; the invocation was rejected outright.

    Nothing ran and nothing billed — the cost of an outage is the time
    lost discovering it plus whatever the retry policy burns waiting.
    """

    def __init__(self, function: str) -> None:
        super().__init__(function, 0.0, 0.0, reason="zone outage")


class SandboxReclaimedError(InvocationFailedError):
    """The sandbox was reclaimed (spot-style) mid-execution.

    The partial runtime bills, like any transient failure, but the
    sandbox is destroyed rather than returned to the warm pool.
    """

    def __init__(self, function: str, ran_for_s: float, billed_usd: float) -> None:
        super().__init__(
            function, ran_for_s, billed_usd, reason="sandbox reclaimed"
        )


@dataclass(frozen=True)
class PlatformConfig:
    """Platform-wide behaviour knobs.

    Cold-start parameters follow published Lambda measurements: a fixed
    sandbox-provisioning delay plus a per-megabyte package fetch/extract
    cost.
    """

    billing: BillingModel = field(default_factory=BillingModel)
    cold_start_base_s: float = 0.25
    cold_start_per_package_mb_s: float = 0.004
    keep_alive_s: float = 600.0
    default_concurrency: int = 1000
    max_queue_per_function: Optional[int] = None
    memory_tiers_mb: Tuple[float, ...] = STANDARD_MEMORY_TIERS_MB
    #: Probability that any single execution attempt fails transiently
    #: (sandbox OOM-kill, runtime error, service hiccup).  Failed attempts
    #: bill for the time they ran; the sandbox survives.
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.cold_start_base_s < 0 or self.cold_start_per_package_mb_s < 0:
            raise ValueError("cold-start parameters must be >= 0")
        if self.keep_alive_s < 0:
            raise ValueError("keep-alive must be >= 0")
        if self.default_concurrency < 1:
            raise ValueError("default concurrency must be >= 1")
        if not 0.0 <= self.failure_probability < 1.0:
            raise ValueError("failure probability must be in [0, 1)")

    def cold_start_duration(self, spec: FunctionSpec) -> float:
        """Initialisation delay for one cold start of ``spec``."""
        return self.cold_start_base_s + self.cold_start_per_package_mb_s * spec.package_mb


class _Instance:
    """One sandbox of a function: either busy or idle-since-a-time.

    ``pinned`` marks pre-warmed (provisioned-concurrency) sandboxes: they
    never expire and bill by the GB-second from ``pinned_since`` until
    released.
    """

    __slots__ = ("busy", "idle_since", "pinned", "pinned_since")

    def __init__(self, now: float, pinned: bool = False) -> None:
        self.busy = not pinned
        self.idle_since = now
        self.pinned = pinned
        self.pinned_since = now if pinned else 0.0


class _FunctionState:
    """Mutable per-function runtime state."""

    __slots__ = ("spec", "instances", "queue", "cost", "prewarm_gb_s_accrued")

    def __init__(self, spec: FunctionSpec) -> None:
        self.spec = spec
        self.instances: List[_Instance] = []
        self.queue: Deque[Event] = deque()
        self.cost = CostBreakdown.zero()
        #: GB-seconds already accrued by released pre-warmed sandboxes.
        self.prewarm_gb_s_accrued = 0.0

    def idle_instance(self, now: float, keep_alive_s: float) -> Optional[_Instance]:
        """Collect expired instances, then return a warm idle one if any.

        Pinned (pre-warmed) sandboxes are exempt from expiry and are
        preferred, since their capacity is already paid for.  This sits on
        every invocation's grant path, so the steady state (nothing
        expired — warm traffic keeps sandboxes alive) must not rebuild
        the instance list; the second pass runs only after an expiry.
        """
        warm: Optional[_Instance] = None
        expired = False
        for inst in self.instances:
            if not inst.busy:
                if not inst.pinned and now - inst.idle_since >= keep_alive_s:
                    expired = True
                    continue
                if warm is None or (inst.pinned and not warm.pinned):
                    warm = inst
        if expired:
            self.instances = [
                inst
                for inst in self.instances
                if inst.busy
                or inst.pinned
                or now - inst.idle_since < keep_alive_s
            ]
        return warm

    def pinned_gb_seconds(self, now: float) -> float:
        """Provisioned GB-seconds: released pools plus the live one."""
        gb = self.spec.memory_mb / 1024.0
        live = sum(
            (now - inst.pinned_since) * gb
            for inst in self.instances
            if inst.pinned
        )
        return self.prewarm_gb_s_accrued + live


class ServerlessPlatform:
    """A multi-function FaaS control plane on the simulation kernel."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[PlatformConfig] = None,
        metrics: Optional[MetricRegistry] = None,
        name: str = "faas",
        rng: Optional["RngStream"] = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else PlatformConfig()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.name = name
        #: Every completed invocation's metric keys, built once.
        self._keys = tuple(f"{name}.{key}" for key in (
            "invocations", "cold_starts", "cost_usd", "latency_s", "queue_delay_s"))
        self.rng = rng
        if self.config.failure_probability > 0 and rng is None:
            raise ValueError(
                "failure injection requires an RngStream (pass rng=...)"
            )
        self._functions: Dict[str, _FunctionState] = {}
        #: Bumped by every :meth:`deploy` and :meth:`undeploy`, so a
        #: caller can tell that no deployment changed since it last
        #: looked.
        self.deploy_generation = 0
        self._invocations: List[Invocation] = []
        #: Optional :class:`~repro.faults.injector.PlatformFaultModel`
        #: installed by a fault injector; None means no injected faults
        #: (and, crucially, no extra RNG draws — existing seeds replay
        #: identically).
        self.faults = None

    # -- deployment -----------------------------------------------------------

    def deploy(self, spec: FunctionSpec) -> None:
        """Deploy (or redeploy) a function.

        Redeploying replaces the spec and discards the warm pool — matching
        real platforms, where a configuration change recycles sandboxes.
        """
        self._functions[spec.name] = _FunctionState(spec)
        self.deploy_generation += 1

    def undeploy(self, name: str) -> None:
        """Remove a function; outstanding invocations must have finished."""
        state = self._state(name)
        if state.queue or any(i.busy for i in state.instances):
            raise RuntimeError(f"cannot undeploy {name!r}: invocations in flight")
        del self._functions[name]
        self.deploy_generation += 1

    def is_deployed(self, name: str) -> bool:
        """True when ``name`` currently has a deployment."""
        return name in self._functions

    def spec(self, name: str) -> FunctionSpec:
        """The active spec of a deployed function."""
        return self._state(name).spec

    def deployed_functions(self) -> List[str]:
        """Sorted names of all deployed functions."""
        return sorted(self._functions)

    def _state(self, name: str) -> _FunctionState:
        if name not in self._functions:
            raise KeyError(f"function {name!r} is not deployed")
        return self._functions[name]

    # -- planning helpers -------------------------------------------------

    def estimate_duration(self, function: str, work_gcycles: float) -> float:
        """Warm-start execution-time estimate (what allocators plan with)."""
        return self._state(function).spec.duration_for(work_gcycles)

    def estimate_cost(self, function: str, work_gcycles: float) -> float:
        """Per-invocation cost estimate at the current configuration."""
        spec = self._state(function).spec
        duration = spec.duration_for(work_gcycles)
        return self.config.billing.invocation_cost(duration, spec.memory_mb).total

    # -- invocation -----------------------------------------------------------

    def outage_clear_time(self, at: Optional[float] = None) -> Optional[float]:
        """When the zone outage covering ``at`` (default: now) ends.

        ``None`` when no fault model is installed or no outage is active —
        outage-aware retry policies use this to land attempts past the
        dead zone instead of burning them into it.
        """
        if self.faults is None:
            return None
        t = self.sim.now if at is None else at
        return self.faults.outage_clear_time(t)

    def invoke(
        self, request: InvocationRequest
    ) -> Generator[Event, object, Invocation]:
        """Run one invocation of ``request``; returns its Invocation record.

        A generator: a caller that only waits delegates into it with
        ``yield from``; one that races, joins or counts invocations
        spawns it (``sim.spawn(platform.invoke(request))``).  An unknown
        function (``KeyError``) and a full queue
        (:class:`ThrottledError`) raise on the first step.  Never
        delegate into it from a process that anyone interrupts: an
        interrupt would abandon the sandbox busy and the bill unpaid.
        """
        state = self._state(request.function)
        max_queue = self.config.max_queue_per_function
        if max_queue is not None and len(state.queue) >= max_queue:
            raise ThrottledError(f"{request.function}: queue full")
        sim = self.sim  # hoisted: this generator is the platform's hot path
        submitted_at = sim.now
        spec = state.spec
        limit = spec.concurrency_limit or self.config.default_concurrency
        tracer = sim.tracer
        trace_parent = request.trace_parent

        if self.faults is not None and self.faults.outage_active(submitted_at):
            # The zone is dark: the control plane rejects immediately.
            self.metrics.counter(f"{self.name}.outage_rejections").increment()
            tracer.instant(
                "outage_rejected", parent=trace_parent, function=request.function
            )
            raise PlatformOutageError(request.function)

        instance = state.idle_instance(sim.now, self.config.keep_alive_s)
        cold = False
        if instance is not None:
            instance.busy = True
        elif len(state.instances) < limit:
            cold = True
            instance = _Instance(sim.now)
            state.instances.append(instance)
            cold_span = tracer.start_span(
                request.function,
                category=PHASE_COLD_START,
                parent=trace_parent,
                package_mb=spec.package_mb,
            )
            yield sim.timeout(self.config.cold_start_duration(spec))
            tracer.end_span(cold_span)
        else:
            ticket = sim.event()
            state.queue.append(ticket)
            queue_span = tracer.start_span(
                request.function,
                category=PHASE_QUEUE,
                parent=trace_parent,
                depth=len(state.queue),
            )
            # The finishing invocation hands over its instance still marked
            # busy, so a same-timestamp arrival cannot steal it in between.
            instance = yield ticket
            tracer.end_span(queue_span)

        started_at = sim.now
        duration = spec.duration_for(request.work_gcycles)
        exec_span = tracer.start_span(
            request.function,
            category=PHASE_EXECUTE,
            parent=trace_parent,
            tier="cloud",
            cold=cold,
            memory_mb=spec.memory_mb,
        )
        if tracer.enabled:
            tracer.metrics.counter(
                "invocations_total",
                function=request.function,
                cold=str(cold).lower(),
            ).increment()

        if self.faults is not None:
            slowdown = self.faults.slowdown_factor(started_at)
            if slowdown > 1.0:
                duration *= slowdown
                self.metrics.counter(f"{self.name}.straggler_slowdowns").increment()

        fails = (
            self.config.failure_probability > 0
            and self.rng is not None
            and self.rng.bernoulli(self.config.failure_probability)
        )
        if fails:
            # The attempt dies partway through; the partial runtime bills,
            # the sandbox survives and is handed back to the pool.
            ran_for = duration * self.rng.uniform(0.05, 0.95)
            yield sim.timeout(ran_for)
            self._release_instance(state, instance)
            partial = self.config.billing.invocation_cost(
                ran_for, spec.memory_mb
            )
            state.cost = state.cost + partial
            self.metrics.counter(f"{self.name}.failures").increment()
            self.metrics.counter(f"{self.name}.cost_usd").increment(partial.total)
            tracer.end_span(
                exec_span, error="InvocationFailedError", billed_usd=partial.total
            )
            raise InvocationFailedError(
                request.function, ran_for, partial.total
            )

        if self.faults is not None:
            reclaim_at = self.faults.reclaim_time(started_at, duration)
            if reclaim_at is not None:
                # The sandbox is reclaimed mid-run: partial runtime bills,
                # but the sandbox is destroyed, not returned to the pool.
                ran_for = reclaim_at - started_at
                yield sim.timeout(ran_for)
                self._reclaim_instance(state, instance, limit)
                partial = self.config.billing.invocation_cost(
                    ran_for, spec.memory_mb
                )
                state.cost = state.cost + partial
                self.metrics.counter(f"{self.name}.failures").increment()
                self.metrics.counter(f"{self.name}.reclamations").increment()
                self.metrics.counter(f"{self.name}.cost_usd").increment(
                    partial.total
                )
                tracer.end_span(
                    exec_span,
                    error="SandboxReclaimedError",
                    billed_usd=partial.total,
                )
                raise SandboxReclaimedError(
                    request.function, ran_for, partial.total
                )

        yield sim.timeout(duration)
        finished_at = sim.now
        self._release_instance(state, instance)
        tracer.end_span(exec_span)

        cost = self.config.billing.invocation_cost(duration, spec.memory_mb)
        state.cost = state.cost + cost
        record = Invocation(
            request=request,
            submitted_at=submitted_at,
            started_at=started_at,
            finished_at=finished_at,
            cold_start=cold,
            memory_mb=spec.memory_mb,
            billed_duration_s=self.config.billing.billed_duration(duration),
            cost=cost.total,
        )
        self._invocations.append(record)
        invocations, cold_starts, cost_usd, latency_s, queue_delay_s = self._keys
        m = self.metrics
        m.counter(invocations).increment()
        if cold:
            m.counter(cold_starts).increment()
        m.counter(cost_usd).increment(cost.total)
        m.summary(latency_s).observe(finished_at - submitted_at)
        m.summary(queue_delay_s).observe(started_at - submitted_at)
        return record

    def _release_instance(self, state: _FunctionState, instance: _Instance) -> None:
        """Hand the instance straight to the next queued request (leaving
        it marked busy so a same-timestamp arrival cannot steal it), or
        idle it."""
        if state.queue:
            ticket = state.queue.popleft()
            ticket.succeed(instance)
        else:
            instance.busy = False
            instance.idle_since = self.sim.now

    def _reclaim_instance(
        self, state: _FunctionState, instance: _Instance, limit: int
    ) -> None:
        """Destroy a reclaimed sandbox; cold-start a replacement if queued
        requests would otherwise be stranded below the concurrency limit."""
        state.instances.remove(instance)
        if state.queue and len(state.instances) < limit:
            self.sim.spawn(
                self._replacement_proc(state), name=f"{self.name}.respawn"
            )

    def _replacement_proc(
        self, state: _FunctionState
    ) -> Generator[Event, object, None]:
        replacement = _Instance(self.sim.now)
        state.instances.append(replacement)
        yield self.sim.timeout(self.config.cold_start_duration(state.spec))
        self._release_instance(state, replacement)

    # -- pre-warming (provisioned concurrency) ------------------------------

    def prewarm(self, function: str, count: int) -> Event:
        """Provision ``count`` always-warm sandboxes for ``function``.

        The returned process event fires once the sandboxes are
        initialised (one cold-start delay; platforms provision in
        parallel).  Pre-warmed sandboxes never expire and bill by the
        GB-second until :meth:`release_prewarm`.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        state = self._state(function)
        limit = state.spec.concurrency_limit or self.config.default_concurrency
        if len(state.instances) + count > limit:
            raise ValueError(
                f"{function}: pre-warming {count} would exceed the "
                f"concurrency limit of {limit}"
            )
        return self.sim.spawn(
            self._prewarm_proc(state, count), name=f"{self.name}.prewarm"
        )

    def _prewarm_proc(
        self, state: _FunctionState, count: int
    ) -> Generator[Event, object, int]:
        yield self.sim.timeout(self.config.cold_start_duration(state.spec))
        now = self.sim.now
        for _ in range(count):
            state.instances.append(_Instance(now, pinned=True))
        # Serve anything already queued with the fresh capacity.
        while state.queue:
            instance = state.idle_instance(now, self.config.keep_alive_s)
            if instance is None:
                break
            instance.busy = True
            state.queue.popleft().succeed(instance)
        return count

    def release_prewarm(self, function: str) -> None:
        """Stop provisioned billing; pinned sandboxes become ordinary warm
        instances subject to keep-alive expiry."""
        state = self._state(function)
        now = self.sim.now
        gb = state.spec.memory_mb / 1024.0
        for instance in state.instances:
            if instance.pinned:
                state.prewarm_gb_s_accrued += (now - instance.pinned_since) * gb
                instance.pinned = False
                if not instance.busy:
                    instance.idle_since = now

    def prewarmed_count(self, function: str) -> int:
        """Currently provisioned (pinned) sandboxes of a function."""
        return sum(1 for i in self._state(function).instances if i.pinned)

    def provisioned_cost(self, function: Optional[str] = None) -> float:
        """USD billed for pre-warmed capacity up to the current time."""
        states = (
            [self._state(function)]
            if function is not None
            else list(self._functions.values())
        )
        gb_seconds = sum(s.pinned_gb_seconds(self.sim.now) for s in states)
        return self.config.billing.provisioned_cost(gb_seconds)

    # -- accounting -----------------------------------------------------------

    @property
    def invocations(self) -> List[Invocation]:
        """All completed invocation records, in completion order."""
        return list(self._invocations)

    @property
    def total_cost(self) -> float:
        """Accumulated bill across every function, in USD — invocation
        charges (including failed attempts) plus provisioned capacity."""
        invocations = sum(
            (s.cost for s in self._functions.values()), CostBreakdown.zero()
        )
        return invocations.total + self.provisioned_cost()

    def function_cost(self, name: str) -> CostBreakdown:
        """Accumulated bill of one function."""
        return self._state(name).cost

    def cold_start_fraction(self, function: Optional[str] = None) -> float:
        """Fraction of completed invocations that cold-started."""
        records = self._invocations
        if function is not None:
            records = [r for r in records if r.request.function == function]
        if not records:
            return 0.0
        return sum(1 for r in records if r.cold_start) / len(records)

    def warm_pool_size(self, function: str) -> int:
        """Instances currently alive (busy or within keep-alive)."""
        state = self._state(function)
        state.idle_instance(self.sim.now, self.config.keep_alive_s)  # purge
        return len(state.instances)


__all__ = [
    "InvocationFailedError",
    "PlatformConfig",
    "PlatformOutageError",
    "SandboxReclaimedError",
    "ServerlessPlatform",
    "ThrottledError",
]
