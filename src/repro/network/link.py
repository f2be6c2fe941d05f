"""Link and path models with contention and time-varying bandwidth."""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Optional, Sequence

from repro.metrics import MetricRegistry
from repro.sim import Resource, Simulator
from repro.sim.events import Event
from repro.telemetry.tracer import PHASE_TRANSFER
from repro.traces.bandwidth import BandwidthTrace, ConstantBandwidth


class TransferResult(NamedTuple):
    """Outcome of one completed transfer.

    ``active_seconds`` counts only the time the medium was actually in
    use (serialisation + propagation) across every hop; the difference to
    ``duration`` is queueing for free channels.  ``radio_seconds`` is the
    *first* hop's active time — the only stretch during which the UE's
    own radio transmits; downstream (WAN) hops are the carrier's
    equipment.  Radio energy accounting uses ``radio_seconds``: a queued
    transfer does not keep the radio hot, and neither does WAN
    store-and-forward.
    """

    bytes: float
    started_at: float
    finished_at: float
    active_seconds: float = 0.0
    radio_seconds: float = 0.0

    @property
    def duration(self) -> float:
        """Wall-clock seconds the transfer took, including queueing."""
        return self.finished_at - self.started_at

    @property
    def queue_seconds(self) -> float:
        """Seconds spent waiting for a free channel."""
        return max(self.duration - self.active_seconds, 0.0)


class Link:
    """A single network hop.

    Parameters
    ----------
    sim:
        The owning simulator.
    bandwidth:
        Bytes/second, either a number (constant) or a
        :class:`~repro.traces.bandwidth.BandwidthTrace`.
    latency_s:
        One-way propagation delay added to every transfer.
    per_request_overhead_bytes:
        Protocol overhead (headers, TLS) added to each transfer's payload.
    channels:
        How many transfers may progress concurrently.  The default of 1
        serialises transfers, the standard conservative uplink model;
        higher values approximate fair sharing by slot.
    name:
        Used in metric keys.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: "BandwidthTrace | float",
        latency_s: float = 0.0,
        per_request_overhead_bytes: float = 0.0,
        channels: int = 1,
        name: str = "link",
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        if per_request_overhead_bytes < 0:
            raise ValueError("per-request overhead must be >= 0")
        self.sim = sim
        self.trace = (
            bandwidth
            if isinstance(bandwidth, BandwidthTrace)
            else ConstantBandwidth(float(bandwidth))
        )
        self.latency_s = float(latency_s)
        self.per_request_overhead_bytes = float(per_request_overhead_bytes)
        self.name = name
        #: Every transfer's metric keys, built once.
        self._keys = (f"{name}.transfers", f"{name}.bytes", f"{name}.duration_s")
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._channels = Resource(sim, capacity=channels)

    @property
    def trace(self) -> BandwidthTrace:
        """The bandwidth signal; assigning one refreshes the fast path."""
        return self._trace

    @trace.setter
    def trace(self, trace: BandwidthTrace) -> None:
        self._trace = trace
        # Constant-rate links (the overwhelmingly common case: every
        # connectivity preset and sweep axis) skip the piecewise
        # integration in ``transfer_time`` — one division instead of a
        # regime-crossing loop plus two virtual calls per transfer.  The
        # isinstance check runs once per assignment, not per transfer.
        self._const_rate = (
            trace.rate_bps if type(trace) is ConstantBandwidth else None
        )

    @property
    def queue_length(self) -> int:
        """Transfers currently waiting for a channel."""
        return self._channels.queue_length

    def apply_faults(self, schedule, target: Optional[str] = None) -> None:
        """Overlay a :class:`~repro.faults.schedule.FaultSchedule` on this
        link: outage windows zero the rate, degradation windows scale it.

        The wrap composes (repeated calls stack schedules) and keeps the
        piecewise-constant contract, so in-flight planning estimates and
        transfer integration remain exact.
        """
        from repro.faults.injector import FaultedBandwidth

        self.trace = FaultedBandwidth(self.trace, schedule, target)
        self.metrics.counter(f"{self.name}.fault_overlays").increment()

    def estimate_transfer_time(self, nbytes: float, at: Optional[float] = None) -> float:
        """Uncontended estimate of moving ``nbytes`` starting at ``at``.

        This is what offloading *policies* use for planning; the actual
        transfer may take longer under contention.
        """
        start = self.sim.now if at is None else at
        payload = nbytes + self.per_request_overhead_bytes
        rate = self._const_rate
        if rate is not None and payload > 0:
            # Bit-identical to ConstantBandwidth.transfer_time's
            # ``(start + needed) - start`` — the round-trip through the
            # start time is kept so existing golden traces replay exactly.
            return self.latency_s + ((start + payload / rate) - start)
        return self.latency_s + self._trace.transfer_time(start, payload)

    def transfer(self, nbytes: float) -> Generator[Event, object, TransferResult]:
        """Move ``nbytes`` across the link; returns a :class:`TransferResult`.

        Queueing for a free channel, protocol overhead, propagation latency
        and bandwidth variation are all accounted.  A generator under the
        rules of :meth:`NetworkPath.transfer`.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        started = self.sim.now
        request = self._channels.request()
        yield request
        try:
            payload = nbytes + self.per_request_overhead_bytes
            rate = self._const_rate
            if rate is not None and payload > 0:
                # Same float round-trip as ConstantBandwidth.transfer_time
                # so transfer durations stay byte-identical in traces.
                now = self.sim.now
                serialisation = (now + payload / rate) - now
            else:
                serialisation = self._trace.transfer_time(self.sim.now, payload)
            active = serialisation + self.latency_s
            yield self.sim.timeout(active)
        finally:
            self._channels.release(request)
        finished = self.sim.now
        transfers, sent, duration_s = self._keys
        self.metrics.counter(transfers).increment()
        self.metrics.counter(sent).increment(nbytes)
        self.metrics.summary(duration_s).observe(finished - started)
        return TransferResult(
            bytes=nbytes,
            started_at=started,
            finished_at=finished,
            active_seconds=active,
            radio_seconds=active,
        )


class NetworkPath:
    """An ordered chain of links (e.g. UE → cellular → WAN → cloud).

    Transfers traverse links sequentially: store-and-forward semantics,
    which upper-bounds pipelined reality and keeps planning conservative.
    """

    def __init__(self, sim: Simulator, links: Sequence[Link], name: str = "path") -> None:
        if not links:
            raise ValueError("a path needs at least one link")
        self.sim = sim
        self.links: List[Link] = list(links)
        self.name = name

    @property
    def total_latency_s(self) -> float:
        """Sum of per-link propagation delays."""
        return sum(link.latency_s for link in self.links)

    def estimate_transfer_time(self, nbytes: float, at: Optional[float] = None) -> float:
        """Uncontended store-and-forward estimate across every hop."""
        t = self.sim.now if at is None else at
        elapsed = 0.0
        for link in self.links:
            hop = link.estimate_transfer_time(nbytes, at=t + elapsed)
            elapsed += hop
        return elapsed

    def bottleneck_rate(self, at: Optional[float] = None) -> float:
        """Lowest instantaneous link rate along the path."""
        t = self.sim.now if at is None else at
        return min(link.trace.rate_at(t) for link in self.links)

    def transfer(
        self, nbytes: float, parent: Optional[object] = None
    ) -> Generator[Event, object, TransferResult]:
        """Move ``nbytes`` across every hop; returns a :class:`TransferResult`.

        Each hop's :meth:`Link.transfer` runs inline, in order.  A
        generator: a caller that only waits delegates into it with
        ``yield from``; one that races, joins or counts transfers spawns
        it.  A negative ``nbytes`` raises ``ValueError`` on the first
        step.  Never delegate into it from a process that anyone
        interrupts: the transfer would end unrecorded.  ``parent``
        optionally carries the caller's telemetry span, under which a
        traced run records the path's ``transfer`` span.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        started = self.sim.now
        tracer = self.sim.tracer
        span = tracer.start_span(
            self.name, category=PHASE_TRANSFER, parent=parent, bytes=nbytes
        )
        active = 0.0
        radio = 0.0
        for index, link in enumerate(self.links):
            hop: TransferResult = yield from link.transfer(nbytes)
            active += hop.active_seconds
            if index == 0:
                radio = hop.active_seconds
        tracer.end_span(span, active_s=active, hops=len(self.links))
        return TransferResult(
            bytes=nbytes,
            started_at=started,
            finished_at=self.sim.now,
            active_seconds=active,
            radio_seconds=radio,
        )


__all__ = ["Link", "NetworkPath", "TransferResult"]
