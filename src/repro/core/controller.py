"""The end-to-end offloading runtime.

:class:`Environment` bundles the simulated world (UE, network paths,
serverless platform); :class:`OffloadController` is the paper's framework
running inside it:

1. **profile** the application offline (C1) and keep learning online;
2. **partition** the component graph between UE and cloud (C3);
3. **allocate** memory for every cloud component (C2);
4. **deploy** the resulting functions to the platform (C4 feeds this);
5. **schedule** released jobs inside their slack (C5) and execute the
   DAG — local components on UE cores, cloud components as serverless
   invocations, cut edges as radio transfers.

The controller optionally *adapts*: online observations update the demand
model and the plan is recomputed every ``replan_every`` jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job, JobResult
from repro.core.allocation import AllocationDecision, MemoryAllocator
from repro.core.demand import DemandModel, RegressionEstimator
from repro.core.partitioning import (
    MinCutPartitioner,
    ObjectiveWeights,
    Partition,
    PartitionContext,
    Partitioner,
    evaluate_partition,
)
from repro.core.scheduler import EagerScheduler, ScheduleDecision, Scheduler
from repro.device.ue import DeviceSpec, UserEquipment
from repro.metrics import MetricRegistry
from repro.network.link import NetworkPath
from repro.network.profiles import cloud_path, profile as connectivity_profile
from repro.profiling.profiler import DemandObservation, Profiler
from repro.faults.policy import DegradationPolicy
from repro.serverless.function import FunctionSpec, InvocationRequest
from repro.serverless.retry import (
    RetriesExhaustedError,
    RetryPolicy,
    invoke_hedged,
    invoke_with_retries,
)
from repro.serverless.platform import (
    InvocationFailedError,
    PlatformConfig,
    ServerlessPlatform,
    ThrottledError,
)
from repro.storage.objectstore import ObjectStore, StoragePricing
from repro.sim import Event, Simulator
from repro.sim.rng import RngStream, SeedSequenceRegistry
from repro.telemetry.tracer import (
    PHASE_COMPONENT,
    PHASE_DOWNLOAD,
    PHASE_EXECUTE,
    PHASE_JOB,
    PHASE_PLAN,
    PHASE_SCHEDULE,
    PHASE_STAGE,
    PHASE_UPLOAD,
)


class Environment:
    """The simulated world one controller operates in."""

    def __init__(
        self,
        sim: Simulator,
        ue: UserEquipment,
        platform: ServerlessPlatform,
        uplink: NetworkPath,
        downlink: NetworkPath,
        rng: SeedSequenceRegistry,
        metrics: Optional[MetricRegistry] = None,
        execution_noise_sigma: float = 0.05,
        storage: Optional[ObjectStore] = None,
    ) -> None:
        self.sim = sim
        self.ue = ue
        self.platform = platform
        self.uplink = uplink
        self.downlink = downlink
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricRegistry()
        if execution_noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        self.execution_noise_sigma = execution_noise_sigma
        #: Optional object store staging cut-edge data; when present the
        #: controller routes transfers through it and pays its prices.
        self.storage = storage

    @staticmethod
    def build(
        seed: int = 0,
        connectivity: str = "4g",
        device: Optional[DeviceSpec] = None,
        platform_config: Optional[PlatformConfig] = None,
        execution_noise_sigma: float = 0.05,
        with_storage: bool = False,
        storage_pricing: Optional[StoragePricing] = None,
    ) -> "Environment":
        """Assemble a standard environment from a connectivity preset.

        ``with_storage=True`` adds an object store so cut-edge data is
        staged through the cloud data plane (request latency, egress
        pricing) instead of moving point to point.
        """
        sim = Simulator()
        rng = SeedSequenceRegistry(seed)
        metrics = MetricRegistry()
        ue = UserEquipment(sim, device, metrics=metrics)
        platform = ServerlessPlatform(
            sim, platform_config, metrics=metrics, rng=rng.stream("platform")
        )
        prof = connectivity_profile(connectivity)
        storage = None
        if with_storage or storage_pricing is not None:
            storage = ObjectStore(sim, storage_pricing, metrics=metrics)
        return Environment(
            sim=sim,
            ue=ue,
            platform=platform,
            uplink=cloud_path(sim, prof, uplink=True, metrics=metrics),
            downlink=cloud_path(sim, prof, uplink=False, metrics=metrics),
            rng=rng,
            metrics=metrics,
            execution_noise_sigma=execution_noise_sigma,
            storage=storage,
        )

    @staticmethod
    def build_custom(
        seed: int = 0,
        uplink_bandwidth: "float | object" = 1.25e6,
        downlink_bandwidth: "Optional[float | object]" = None,
        access_latency_s: float = 0.025,
        wan_latency_s: float = 0.040,
        device: Optional[DeviceSpec] = None,
        platform_config: Optional[PlatformConfig] = None,
        execution_noise_sigma: float = 0.05,
        with_storage: bool = False,
        storage_pricing: Optional[StoragePricing] = None,
    ) -> "Environment":
        """Assemble an environment with explicit link characteristics.

        ``uplink_bandwidth``/``downlink_bandwidth`` accept either a rate
        in bytes/second or a :class:`~repro.traces.bandwidth.BandwidthTrace`
        (e.g. a Markov good/bad channel), which is how time-varying
        connectivity experiments are built.  The downlink defaults to 4x
        the uplink when given as a number, or to the same trace object.
        """
        from repro.network.link import Link

        sim = Simulator()
        rng = SeedSequenceRegistry(seed)
        metrics = MetricRegistry()
        if downlink_bandwidth is None:
            downlink_bandwidth = (
                uplink_bandwidth * 4
                if isinstance(uplink_bandwidth, (int, float))
                else uplink_bandwidth
            )

        def path(bandwidth, direction: str) -> NetworkPath:
            wan_rate = (
                bandwidth * 4 if isinstance(bandwidth, (int, float)) else 1e9
            )
            access = Link(
                sim,
                bandwidth=bandwidth,
                latency_s=access_latency_s,
                per_request_overhead_bytes=1500.0,
                name=f"custom.access.{direction}",
                metrics=metrics,
            )
            wan = Link(
                sim,
                bandwidth=wan_rate,
                latency_s=wan_latency_s,
                name=f"custom.wan.{direction}",
                metrics=metrics,
            )
            return NetworkPath(sim, [access, wan], name=f"custom.{direction}")

        storage = None
        if with_storage or storage_pricing is not None:
            storage = ObjectStore(sim, storage_pricing, metrics=metrics)
        return Environment(
            sim=sim,
            ue=UserEquipment(sim, device, metrics=metrics),
            platform=ServerlessPlatform(
                sim, platform_config, metrics=metrics, rng=rng.stream("platform")
            ),
            uplink=path(uplink_bandwidth, "up"),
            downlink=path(downlink_bandwidth, "down"),
            rng=rng,
            metrics=metrics,
            execution_noise_sigma=execution_noise_sigma,
            storage=storage,
        )

    def actual_work(self, nominal_gcycles: float, stream: RngStream) -> float:
        """Perturb a nominal demand with run-to-run execution noise."""
        if self.execution_noise_sigma <= 0 or nominal_gcycles <= 0:
            return nominal_gcycles
        return nominal_gcycles * stream.lognormal_bounded(
            1.0, self.execution_noise_sigma, low=0.2, high=5.0
        )


class JobRejectedError(RuntimeError):
    """Admission control refused a job whose deadline is unmeetable."""

    def __init__(self, job: Job, estimate_s: float) -> None:
        super().__init__(
            f"job {job.job_id}: deadline {job.deadline:.1f} unmeetable "
            f"(needs ~{estimate_s:.1f}s from release)"
        )
        self.job = job
        self.estimate_s = estimate_s


@dataclass
class JobFailure:
    """A job that did not complete."""

    job: Job
    failed_at: float
    error: BaseException


@dataclass
class ControllerReport:
    """Aggregate outcome of a workload run."""

    results: List[JobResult] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def jobs_completed(self) -> int:
        """Number of jobs that finished."""
        return len(self.results)

    @property
    def rejections(self) -> int:
        """Jobs turned away by admission control."""
        return sum(
            1
            for failure in self.failures
            if isinstance(failure.error, JobRejectedError)
        )

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed jobs that missed their deadline
        (failures count as misses)."""
        total = len(self.results) + len(self.failures)
        if total == 0:
            return 0.0
        missed = sum(1 for r in self.results if not r.met_deadline)
        return (missed + len(self.failures)) / total

    @property
    def mean_response_s(self) -> float:
        """Mean release-to-completion time across completed jobs."""
        if not self.results:
            return math.nan
        return sum(r.response_time for r in self.results) / len(self.results)

    @property
    def total_ue_energy_j(self) -> float:
        """Total UE energy across completed jobs."""
        return sum(r.ue_energy_j for r in self.results)

    @property
    def total_cloud_cost_usd(self) -> float:
        """Total serverless bill across completed jobs."""
        return sum(r.cloud_cost_usd for r in self.results)

    def percentile_response_s(self, p: float) -> float:
        """Exact percentile of response times (p in [0, 100])."""
        if not self.results:
            return math.nan
        data = sorted(r.response_time for r in self.results)
        position = (p / 100.0) * (len(data) - 1)
        lower, upper = int(math.floor(position)), int(math.ceil(position))
        if lower == upper:
            return data[lower]
        weight = position - lower
        return data[lower] * (1 - weight) + data[upper] * weight


class OffloadController:
    """Runs one application under the paper's offloading framework."""

    def __init__(
        self,
        env: Environment,
        app: AppGraph,
        partitioner: Optional[Partitioner] = None,
        allocator: Optional[MemoryAllocator] = None,
        scheduler: Optional[Scheduler] = None,
        demand_model: Optional[DemandModel] = None,
        weights: Optional[ObjectiveWeights] = None,
        latency_slo_s: float = math.inf,
        adaptive: bool = False,
        replan_every: int = 20,
        function_prefix: str = "",
        retry_policy: Optional[RetryPolicy] = None,
        dvfs: bool = False,
        admission_control: bool = False,
        degradation: Optional[DegradationPolicy] = None,
        observed_signals: bool = False,
        monitor: Optional[Any] = None,
    ) -> None:
        self.env = env
        self.app = app
        self.partitioner = partitioner or MinCutPartitioner()
        self.allocator = allocator or MemoryAllocator(
            billing=env.platform.config.billing
        )
        self.scheduler = scheduler or EagerScheduler()
        self.demand = demand_model or DemandModel(app, RegressionEstimator)
        self.weights = weights or ObjectiveWeights.non_time_critical()
        self.latency_slo_s = latency_slo_s
        self.adaptive = adaptive
        if replan_every < 1:
            raise ValueError("replan_every must be >= 1")
        self.replan_every = replan_every
        self.function_prefix = function_prefix
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=1.0, multiplier=2.0
        )
        #: When True, local components run at the lowest DVFS point that
        #: still (predictably) meets the job's deadline — the classic
        #: race-to-idle vs crawl-to-deadline trade, resolved toward
        #: crawling because E ∝ f² while nobody is waiting.
        self.dvfs = dvfs
        #: When True, jobs whose deadline is predictably unmeetable are
        #: rejected at submission instead of burning energy and dollars
        #: on a guaranteed miss.
        self.admission_control = admission_control
        #: Optional graceful-degradation responses (outage-aware backoff,
        #: hedged duplicates, fallback-to-local).  None keeps the legacy
        #: retry-only cloud path, byte-identical to pre-fault behaviour.
        self.degradation = degradation
        #: When True, the controller consumes only signals a production
        #: system could observe: demand observations are derived from
        #: measured execution durations (not the oracle's actual
        #: gigacycles), :meth:`profile_offline` is a no-op, and planning
        #: link rates come from the attached ``monitor``'s windowed
        #: goodput when available.  Ablation A10 compares the two modes.
        self.observed_signals = observed_signals
        #: Optional :class:`~repro.monitor.monitor.Monitor` supplying
        #: observed link-throughput history for planning.
        self.monitor = monitor

        self.partition: Optional[Partition] = None
        self.allocation: Dict[str, AllocationDecision] = {}
        self._jobs_since_replan = 0
        #: Per-controller job sequence used for trace span labels.  Job
        #: ids come from a process-global counter, so two same-seed runs
        #: in one process would otherwise emit different traces.
        self._trace_job_seq = 0
        self._exec_rng = env.rng.stream(f"controller.{app.name}.exec")
        self._planned_input_mb: float = 1.0
        #: Last-known-good link rates, held across injected outages so
        #: planning mid-outage uses the estimator's memory instead of an
        #: unusable instantaneous zero.
        self._last_rates: Dict[str, float] = {}
        #: Remediation seams (driven by :mod:`repro.remediate`): jobs
        #: dispatched before ``_hold_local_until`` run fully local
        #: regardless of the current partition; ``plan_rate_overrides``
        #: pins planning link rates to a forecast instead of the
        #: estimator; ``memory_floor_mb`` floors deployed function sizes.
        self._hold_local_until: float = 0.0
        self.plan_rate_overrides: Dict[str, float] = {}
        self.memory_floor_mb: float = 0.0

    @property
    def planned_input_mb(self) -> float:
        """The input size the current plan was computed for."""
        return self._planned_input_mb

    def hold_local(self, until: float) -> bool:
        """Route jobs dispatched before sim time ``until`` fully local.

        The partition itself is untouched (planning state survives), but
        :meth:`_job_body` snapshots a local-only partition for any job
        whose execution starts inside the hold window — the
        shift-traffic remediation action.  Returns True when the window
        actually extended (False lets the caller skip a no-op log line).
        """
        if until <= self._hold_local_until:
            return False
        self._hold_local_until = until
        return True

    # -- planning --------------------------------------------------------

    def profile_offline(
        self,
        input_sizes_mb: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0),
        repetitions: int = 3,
        noise_sigma: float = 0.1,
    ) -> None:
        """Run the CI-style profiling sweep and train the demand model.

        In observed-signal mode this is a no-op: the oracle profiler is
        exactly the signal that mode forswears, so the demand model
        starts from its priors and learns from monitored executions.
        """
        if self.observed_signals:
            return
        profiler = Profiler(
            self.env.rng.stream(f"profiler.{self.app.name}"), noise_sigma
        )
        observations = profiler.profile(self.app, input_sizes_mb, repetitions)
        self.demand.observe_profile(observations)

    def _usable_rate(self, path: NetworkPath, key: str) -> float:
        """Bottleneck rate for planning, riding through link outages.

        An injected outage makes the instantaneous rate zero, which no
        plan can use; real bandwidth estimators hold their last estimate
        instead.  A link never yet seen up prices in at 1 kbit/s, which
        makes remote work prohibitively expensive and plans the job
        locally — the right call while the radio is dark.

        In observed-signal mode with a monitor attached, the windowed
        goodput measured from completed transfers is preferred; the
        legacy estimator only bootstraps planning before any transfer
        has been observed.

        A remediation rate override (a short-horizon forecast of the
        link's goodput) takes precedence over every other source: the
        whole point of proactive re-planning is to price the *predicted*
        rate before the estimator has caught up.
        """
        override = self.plan_rate_overrides.get(key)
        if override is not None and override > 0:
            return override
        if self.observed_signals and self.monitor is not None:
            observed = self.monitor.link_rate(key, self.env.sim.now)
            if observed is not None and observed > 0:
                self._last_rates[key] = observed
                return observed
        rate = path.bottleneck_rate(self.env.sim.now)
        if rate > 0:
            self._last_rates[key] = rate
            return rate
        return self._last_rates.get(key, 125.0)

    def build_context(self, input_mb: float) -> PartitionContext:
        """A planning context at the current network conditions."""
        work = {
            name: self.demand.predict(name, input_mb)
            for name in self.app.component_names
        }
        memory_plan = {
            name: decision.memory_mb for name, decision in self.allocation.items()
        }
        return PartitionContext(
            app=self.app,
            input_mb=input_mb,
            work=work,
            ue_cycles_per_second=self.env.ue.spec.cycles_per_second,
            energy=self.env.ue.spec.energy,
            billing=self.env.platform.config.billing,
            memory_plan=memory_plan,
            uplink_bps=self._usable_rate(self.env.uplink, "uplink"),
            uplink_latency_s=self.env.uplink.total_latency_s,
            downlink_bps=self._usable_rate(self.env.downlink, "downlink"),
            downlink_latency_s=self.env.downlink.total_latency_s,
            egress_price_per_gb=(
                self.env.storage.pricing.egress_price_per_gb
                if self.env.storage is not None
                else 0.0
            ),
            weights=self.weights,
        )

    def plan(self, input_mb: float = 1.0) -> Partition:
        """Partition, allocate, and deploy for the expected input size.

        Safe to call repeatedly: only functions whose memory changed are
        redeployed (a redeploy recycles the warm pool, so needless churn
        is avoided).

        Planning is two passes at most.  The first partitions at the
        memory sizes of the previous allocation; when its allocation
        keeps every size, the second pass would price the same context,
        so it is skipped (the fixed point).  Otherwise the second pass
        partitions at the new sizes, and reuses the first allocation if
        the partition did not change (``allocate_app`` is pure).  Sizes
        are compared, not whole :class:`AllocationDecision` values,
        because ``expected_duration_s`` drifts with online demand
        learning.  A partitioner that draws randomness per call, such as
        :class:`~repro.core.partitioning.SimulatedAnnealingPartitioner`,
        is therefore called once when the fixed point holds.
        """
        self._planned_input_mb = input_mb
        tracer = self.env.sim.tracer
        meter = self.env.sim.meter
        plan_started = perf_counter() if meter.enabled else 0.0
        plan_span = tracer.start_span(
            "plan", category=PHASE_PLAN, app=self.app.name, input_mb=input_mb
        )
        # First pass at default memory, then refine: the partition decides
        # *what* runs in the cloud, the allocation decides *at which size*,
        # and sizes feed back into partition economics.
        context = self.build_context(input_mb)
        partition = self.partitioner.partition(context)
        partition.validate(self.app)
        allocation = self.allocator.allocate_app(
            self.app, partition, self.demand, input_mb, self.latency_slo_s
        )
        self.allocation = allocation
        memory_plan = {
            name: decision.memory_mb for name, decision in allocation.items()
        }
        if memory_plan != context.memory_plan:
            context = self.build_context(input_mb)
            refined = self.partitioner.partition(context)
            refined.validate(self.app)
            if refined != partition:
                partition = refined
                allocation = self.allocator.allocate_app(
                    self.app, partition, self.demand, input_mb,
                    self.latency_slo_s,
                )
        self.partition = partition
        self.allocation = allocation
        self._deploy()
        tracer.end_span(
            plan_span,
            n_cloud=len(partition.cloud),
            n_local=len(self.app.component_names) - len(partition.cloud),
        )
        meter.plans_computed += 1
        if meter.enabled:
            meter.plan_wall_s += perf_counter() - plan_started
        return partition

    def _function_name(self, component: str) -> str:
        return f"{self.function_prefix}{self.app.name}.{component}"

    def _deploy(self) -> None:
        assert self.partition is not None
        platform = self.env.platform
        for component, decision in sorted(self.allocation.items()):
            spec = self.app.component(component)
            fn = FunctionSpec(
                name=self._function_name(component),
                memory_mb=max(decision.memory_mb, self.memory_floor_mb),
                package_mb=spec.package_mb,
                parallel_fraction=spec.parallel_fraction,
            )
            if (
                not platform.is_deployed(fn.name)
                or platform.spec(fn.name) != fn
            ):
                platform.deploy(fn)

    def estimate_completion(
        self, job: Job, frequency_fraction: float = 1.0
    ) -> float:
        """Predicted response time once dispatched (for the scheduler).

        Uses the DAG makespan of the current plan plus one cold start per
        cloud component — conservative, which is what deadline math wants.
        ``frequency_fraction`` scales the UE speed (DVFS planning).
        """
        from dataclasses import replace as _replace

        if self.partition is None:
            self.plan(job.input_mb)
        assert self.partition is not None
        context = self.build_context(job.input_mb)
        if frequency_fraction != 1.0:
            context = _replace(
                context,
                ue_cycles_per_second=(
                    context.ue_cycles_per_second * frequency_fraction
                ),
            )
        evaluation = evaluate_partition(context, self.partition)
        cold_allowance = sum(
            self.env.platform.config.cold_start_duration(
                self.env.platform.spec(self._function_name(name))
            )
            for name in self.partition.cloud
            if self.env.platform.is_deployed(self._function_name(name))
        )
        return evaluation.makespan_s + cold_allowance

    def select_frequency(self, job: Job, now: float) -> float:
        """Lowest DVFS point that still meets the deadline with the
        scheduler's safety margin; 1.0 when DVFS is off.

        With no deadline the lowest point wins outright — nobody is
        waiting, and energy falls with f².
        """
        if not self.dvfs:
            return 1.0
        steps = sorted(self.env.ue.spec.frequency_steps)
        if math.isinf(job.deadline):
            return steps[0]
        budget = job.deadline - now
        safety = self.scheduler.safety_factor
        for fraction in steps:
            if safety * self.estimate_completion(job, fraction) <= budget:
                return fraction
        return 1.0

    # -- execution ---------------------------------------------------------

    def submit(self, job: Job) -> Event:
        """Schedule and execute one job; process event yields JobResult."""
        if job.app.name != self.app.name:
            raise ValueError(
                f"job for app {job.app.name!r} submitted to controller "
                f"for {self.app.name!r}"
            )
        if self.partition is None:
            self.plan(job.input_mb)
        if self.admission_control and not math.isinf(job.deadline):
            estimate = self.estimate_completion(job)
            if self.env.sim.now + estimate > job.deadline:
                rejected = self.env.sim.event()
                rejected.fail(JobRejectedError(job, estimate))
                return rejected
        return self.env.sim.spawn(
            self._job_proc(job), name=f"job{job.job_id}.{self.app.name}"
        )

    def _job_proc(self, job: Job) -> Generator[Event, Any, JobResult]:
        sim = self.env.sim
        tracer = sim.tracer
        trace_seq = self._trace_job_seq
        self._trace_job_seq += 1
        job_span = tracer.start_span(
            f"job{trace_seq}",
            category=PHASE_JOB,
            job_id=trace_seq,
            app=self.app.name,
            input_mb=job.input_mb,
            released_at=job.released_at,
            deadline=job.deadline,
        )
        try:
            result = yield from self._job_body(job, job_span)
        except BaseException as error:  # noqa: BLE001 - close spans, relay
            # A dying job abandons whatever spans its component/transfer
            # processes had open; close the whole subtree so the trace
            # stays complete.
            tracer.end_subtree(job_span, error=type(error).__name__)
            raise
        tracer.end_span(
            job_span,
            met_deadline=result.met_deadline,
            ue_energy_j=result.ue_energy_j,
            cloud_cost_usd=result.cloud_cost_usd,
        )
        if tracer.enabled:
            tracer.metrics.counter(
                "jobs_total", app=self.app.name,
                met_deadline=str(result.met_deadline).lower(),
            ).increment()
            tracer.metrics.summary(
                "job_response_s", app=self.app.name
            ).observe(result.response_time)
        return result

    def _job_body(
        self, job: Job, job_span
    ) -> Generator[Event, Any, JobResult]:
        sim = self.env.sim
        tracer = sim.tracer
        estimate = self.estimate_completion(job)
        decision = self.scheduler.decide(job, sim.now, estimate)
        if decision.dispatch_at > sim.now:
            wait_span = tracer.start_span(
                "deferral",
                category=PHASE_SCHEDULE,
                parent=job_span,
                dispatch_at=decision.dispatch_at,
            )
            yield sim.timeout(decision.dispatch_at - sim.now)
            tracer.end_span(wait_span)
        started = sim.now
        frequency = self.select_frequency(job, sim.now)

        assert self.partition is not None
        partition = self.partition
        if sim.now < self._hold_local_until:
            # Shift-traffic remediation: the zone (or its uplink) is
            # burning, so this job runs fully local.  Snapshotting the
            # override here keeps component and edge processes coherent
            # for the whole job, exactly like the normal partition
            # snapshot below.
            partition = Partition.local_only(self.app)
        app = self.app
        energy_j = 0.0
        energy_breakdown: Dict[str, float] = {}
        cost_usd = 0.0
        finish_times: Dict[str, float] = {}

        def charge(kind: str, joules: float) -> None:
            nonlocal energy_j
            energy_j += joules
            energy_breakdown[kind] = energy_breakdown.get(kind, 0.0) + joules

        component_done: Dict[str, Event] = {
            name: sim.event() for name in app.component_names
        }
        edge_done: Dict[Tuple[str, str], Event] = {}

        observations: List[DemandObservation] = []

        def component_proc(name: str) -> Generator[Event, Any, None]:
            nonlocal cost_usd
            incoming = [edge_done[(pred, name)] for pred in app.predecessors(name)]
            if incoming:
                yield sim.all_of(incoming)
            nominal = job.component_work(name)
            actual = self.env.actual_work(nominal, self._exec_rng)
            observed_gcycles: Optional[float] = None
            tier = "cloud" if partition.is_cloud(name) else "local"
            comp_span = tracer.start_span(
                name,
                category=PHASE_COMPONENT,
                parent=job_span,
                tier=tier,
                work_gcycles=actual,
            )
            if tracer.enabled:
                tracer.metrics.counter(
                    "components_total", app=app.name, tier=tier
                ).increment()
            if partition.is_cloud(name):
                request = InvocationRequest(
                    function=self._function_name(name),
                    work_gcycles=actual,
                    payload_bytes=0.0,
                    tag=f"job{job.job_id}",
                    trace_parent=comp_span if tracer.enabled else None,
                )
                if self.degradation is None:
                    entered = sim.now
                    outcome = yield invoke_with_retries(
                        self.env.platform,
                        request,
                        policy=self.retry_policy,
                        rng=self._exec_rng,
                    )
                    cost_usd += outcome.total_cost
                    if self.observed_signals:
                        observed_gcycles = self._observed_cloud_gcycles(
                            outcome.invocation
                        )
                    # The UE idles for the whole cloud episode, retries
                    # included.
                    charge(
                        "idle",
                        self.env.ue.spec.energy.idle_energy(sim.now - entered),
                    )
                else:
                    episode_cost, episode_observed = (
                        yield from self._degraded_cloud_episode(
                            job, request, actual, frequency, charge, comp_span
                        )
                    )
                    cost_usd += episode_cost
                    observed_gcycles = episode_observed
            else:
                exec_span = tracer.start_span(
                    name,
                    category=PHASE_EXECUTE,
                    parent=comp_span,
                    tier="local",
                )
                execution = yield self.env.ue.execute(
                    actual, frequency_fraction=frequency
                )
                tracer.end_span(exec_span, energy_j=execution.energy_j)
                charge("compute", execution.energy_j)
                if self.observed_signals:
                    observed_gcycles = self._observed_local_gcycles(
                        execution, frequency
                    )
            tracer.end_span(comp_span)
            if self.observed_signals:
                # Feed what a production system could measure: gigacycles
                # recovered from wall-clock durations through the known
                # duration model, never the oracle's `actual`.
                measured = (
                    observed_gcycles if observed_gcycles is not None else actual
                )
            else:
                measured = actual
            observations.append(
                DemandObservation(
                    component=name,
                    input_mb=job.input_mb,
                    measured_gcycles=measured,
                    at_time=sim.now,
                )
            )
            finish_times[name] = sim.now
            component_done[name].succeed(None)

        def edge_proc(src: str, dst: str) -> Generator[Event, Any, None]:
            nonlocal cost_usd
            yield component_done[src]
            src_cloud = partition.is_cloud(src)
            dst_cloud = partition.is_cloud(dst)
            store = self.env.storage
            nbytes = job.flow_bytes(src, dst)
            key = f"job{job.job_id}/{src}->{dst}"
            if not src_cloud and dst_cloud:
                # UE uploads; with a store the payload is staged there.
                up_span = tracer.start_span(
                    f"{src}->{dst}",
                    category=PHASE_UPLOAD,
                    parent=job_span,
                    bytes=nbytes,
                )
                result = yield self.env.ue.transmit(
                    nbytes, self.env.uplink, parent=up_span
                )
                tracer.end_span(up_span, radio_s=result.radio_seconds)
                charge(
                    "tx",
                    self.env.ue.spec.energy.transmit_energy(
                        result.radio_seconds
                    ),
                )
                if store is not None:
                    stage_span = tracer.start_span(
                        f"stage.{src}->{dst}",
                        category=PHASE_STAGE,
                        parent=job_span,
                        bytes=nbytes,
                    )
                    yield store.put(key, nbytes)
                    tracer.end_span(stage_span)
                    cost_usd += store.pricing.price_per_put
                    store.delete(key)  # consumed by the dst function
            elif src_cloud and not dst_cloud:
                if store is not None:
                    # The cloud function writes its result, the UE reads it
                    # out — paying the egress rate.
                    stage_span = tracer.start_span(
                        f"stage.{src}->{dst}",
                        category=PHASE_STAGE,
                        parent=job_span,
                        bytes=nbytes,
                    )
                    yield store.put(key, nbytes)
                    yield store.get(key, external=True)
                    tracer.end_span(stage_span)
                    cost_usd += (
                        store.pricing.price_per_put
                        + store.pricing.price_per_get
                        + store.pricing.transfer_cost(nbytes, external=True)
                    )
                    store.delete(key)
                down_span = tracer.start_span(
                    f"{src}->{dst}",
                    category=PHASE_DOWNLOAD,
                    parent=job_span,
                    bytes=nbytes,
                )
                result = yield self.env.ue.receive(
                    nbytes, self.env.downlink, parent=down_span
                )
                tracer.end_span(down_span, radio_s=result.radio_seconds)
                charge(
                    "rx",
                    self.env.ue.spec.energy.receive_energy(
                        result.radio_seconds
                    ),
                )
            elif src_cloud and dst_cloud and store is not None:
                # Intra-cloud handoff through the store: request latency
                # and fees, no radio involvement.
                stage_span = tracer.start_span(
                    f"stage.{src}->{dst}",
                    category=PHASE_STAGE,
                    parent=job_span,
                    bytes=nbytes,
                )
                yield store.put(key, nbytes)
                yield store.get(key, external=False)
                tracer.end_span(stage_span)
                cost_usd += (
                    store.pricing.price_per_put
                    + store.pricing.price_per_get
                    + store.pricing.transfer_cost(nbytes, external=False)
                )
                store.delete(key)
            edge_done[(src, dst)].succeed(None)

        processes = []
        for flow in app.flows:
            edge_done[(flow.src, flow.dst)] = sim.event()
        for flow in app.flows:
            processes.append(
                sim.spawn(edge_proc(flow.src, flow.dst), name=f"edge.{flow.src}->{flow.dst}")
            )
        for name in app.component_names:
            processes.append(sim.spawn(component_proc(name), name=f"comp.{name}"))
        yield sim.all_of(processes)

        for observation in observations:
            self.demand.observe(observation)
        self._maybe_replan(job)

        result = JobResult(
            job=job,
            started_at=started,
            finished_at=sim.now,
            ue_energy_j=energy_j,
            cloud_cost_usd=cost_usd,
            component_finish_times=finish_times,
            energy_breakdown=energy_breakdown,
        )
        metrics = self.env.metrics
        metrics.summary(f"{app.name}.response_s").observe(result.response_time)
        metrics.counter(f"{app.name}.jobs").increment()
        if not result.met_deadline:
            metrics.counter(f"{app.name}.deadline_misses").increment()
        return result

    def _degraded_cloud_episode(
        self,
        job: Job,
        request: InvocationRequest,
        actual_gcycles: float,
        frequency: float,
        charge: Callable[[str, float], None],
        parent=None,
    ) -> Generator[Event, Any, Tuple[float, Optional[float]]]:
        """One cloud component under the degradation policy.

        Delegated into from the job process (``yield from``); returns the
        USD cost attributed to the job plus the duration-derived demand
        estimate (gigacycles) when observed-signal mode is on, else
        ``None``.  The cloud episode (hedged,
        outage-aware retries) races a fallback budget derived from the
        job's remaining deadline slack: when the budget elapses or the
        cloud fails terminally, the component runs on the UE instead — an
        abandoned cloud lane keeps billing the platform ledger, exactly
        like a real request nobody is waiting for anymore.
        """
        sim = self.env.sim
        degradation = self.degradation
        assert degradation is not None
        metrics = self.env.metrics
        entered = sim.now
        episode = invoke_hedged(
            self.env.platform,
            request,
            policy=self.retry_policy,
            rng=self._exec_rng,
            hedge_after_s=degradation.hedge_after_s,
            outage_aware=degradation.outage_aware_backoff,
        )

        def guarded() -> Generator[Event, Any, tuple]:
            try:
                value = yield episode
            except BaseException as error:  # noqa: BLE001 - relayed below
                return (False, error)
            return (True, value)

        guard = sim.spawn(guarded(), name=f"{self.app.name}.cloud.guard")
        budget = degradation.fallback_budget(entered, job.deadline)
        if budget is None:
            ok, payload = yield guard
        else:
            yield sim.any_of([guard, sim.timeout(budget)])
            if guard.triggered:
                ok, payload = guard.value
            else:
                episode.interrupt("fallback-to-local")
                ok, payload = False, None

        # The UE idles for the whole cloud episode, retries included.
        charge("idle", self.env.ue.spec.energy.idle_energy(sim.now - entered))
        cost = 0.0
        if ok:
            cost += payload.total_cost
            if payload.attempts > 1:
                metrics.counter(f"{self.app.name}.attempts_wasted").increment(
                    payload.attempts - 1
                )
            observed = (
                self._observed_cloud_gcycles(payload.invocation)
                if self.observed_signals
                else None
            )
            return cost, observed

        cloud_errors = (RetriesExhaustedError, InvocationFailedError, ThrottledError)
        if payload is not None and not isinstance(payload, cloud_errors):
            raise payload  # a programming error, not infrastructure trouble
        if isinstance(payload, RetriesExhaustedError):
            cost += payload.wasted_usd
            metrics.counter(f"{self.app.name}.attempts_wasted").increment(
                payload.attempts
            )
        if not degradation.fallback_local:
            assert payload is not None  # budget requires fallback_local
            raise payload
        metrics.counter(f"{self.app.name}.fallbacks").increment()
        tracer = sim.tracer
        tracer.instant(
            "fallback_local",
            parent=parent,
            cause=type(payload).__name__ if payload is not None else "budget",
        )
        fallback_span = tracer.start_span(
            request.function,
            category=PHASE_EXECUTE,
            parent=parent,
            tier="local",
            fallback=True,
        )
        if tracer.enabled:
            tracer.metrics.counter(
                "fallbacks_total", app=self.app.name
            ).increment()
        execution = yield self.env.ue.execute(
            actual_gcycles, frequency_fraction=frequency
        )
        tracer.end_span(fallback_span, energy_j=execution.energy_j)
        charge("compute", execution.energy_j)
        observed = (
            self._observed_local_gcycles(execution, frequency)
            if self.observed_signals
            else None
        )
        return cost, observed

    def _observed_cloud_gcycles(self, invocation) -> float:
        """Demand implied by a cloud invocation's measured duration.

        Inverts the deployed function's duration model at the memory the
        invocation actually ran with; a straggler-inflated runtime
        honestly inflates the estimate — that is the point.
        """
        spec = self.env.platform.spec(invocation.request.function)
        if spec.memory_mb != invocation.memory_mb:
            spec = spec.with_memory(invocation.memory_mb)
        return spec.work_for_duration(invocation.execution_time)

    def _observed_local_gcycles(
        self, execution, frequency: float
    ) -> float:
        """Demand implied by a local execution's wall-clock latency.

        Uses the device's known clock rate at the chosen DVFS point;
        core-contention wait inflates the estimate, as it would for any
        on-device profiler reading timestamps.
        """
        cycles_per_second = self.env.ue.spec.cycles_per_second * frequency
        return execution.latency * cycles_per_second / 1e9

    def _maybe_replan(self, job: Job) -> None:
        if not self.adaptive:
            return
        self._jobs_since_replan += 1
        if self._jobs_since_replan >= self.replan_every:
            self._jobs_since_replan = 0
            self.plan(job.input_mb)

    # -- workload driver ----------------------------------------------------

    def run_workload(
        self,
        jobs: List[Job],
        until: Optional[float] = None,
    ) -> ControllerReport:
        """Release each job at its ``released_at`` and run to completion."""
        report = ControllerReport()
        sim = self.env.sim

        def release(job: Job) -> Generator[Event, Any, None]:
            if job.released_at > sim.now:
                yield sim.timeout(job.released_at - sim.now)
            process = self.submit(job)
            try:
                result = yield process
            except BaseException as error:  # noqa: BLE001 - record, don't crash
                report.failures.append(
                    JobFailure(job=job, failed_at=sim.now, error=error)
                )
            else:
                report.results.append(result)

        drivers = [
            sim.spawn(release(job), name=f"release.job{job.job_id}") for job in jobs
        ]
        if until is not None:
            sim.run(until=until)
        else:
            sim.run(until=sim.all_of(drivers))
        report.results.sort(key=lambda r: r.finished_at)
        return report


__all__ = [
    "ControllerReport",
    "Environment",
    "JobFailure",
    "JobRejectedError",
    "OffloadController",
]
