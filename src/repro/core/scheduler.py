"""Delay-tolerant scheduling (contribution C5).

The defining property of the paper's target workloads is *slack*: nobody
is waiting on the result, so a job released now with a deadline hours away
may be dispatched whenever that is cheapest — as long as it still finishes
in time.  A :class:`Scheduler` maps each released job to a dispatch time;
once dispatched, a job contends for the UE's cores first come, first
served:

* :class:`EagerScheduler` — dispatch immediately; the time-critical
  baseline every framework defaults to.
* :class:`DeadlineBatcher` — align dispatches on window boundaries so
  jobs arrive at the platform together, amortising cold starts and
  keeping instances warm, while never starting later than the job's
  *latest safe start* (deadline minus a safety-padded completion
  estimate).
* :class:`CostWindowScheduler` — additionally scan the slack interval for
  the cheapest dispatch instant under a time-varying price/bandwidth
  signal (off-peak uplink, spot-style pricing).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Optional

from repro.apps.jobs import Job


class _ScheduleDecisionFields(NamedTuple):
    job_id: int
    dispatch_at: float


class ScheduleDecision(_ScheduleDecisionFields):
    """When to dispatch one job."""

    __slots__ = ()

    def __new__(cls, job_id: int, dispatch_at: float) -> "ScheduleDecision":
        if math.isnan(dispatch_at):
            raise ValueError("dispatch time must be a number")
        return tuple.__new__(cls, (job_id, dispatch_at))


class Scheduler(ABC):
    """Interface: decide the dispatch time of each released job.

    ``estimate_completion_s`` is the planner's prediction of the job's
    full response time once dispatched (makespan including transfers) —
    supplied by the controller from the current partition and allocation.
    """

    name: str = "scheduler"

    #: Whether :meth:`decide` reads ``estimate_completion_s``.  When
    #: False the controller skips the estimate and passes ``nan``.
    needs_estimate: bool = True

    #: Multiplier applied to the completion estimate before computing the
    #: latest safe start; absorbs estimation error and queueing.
    safety_factor: float = 1.5

    def latest_safe_start(self, job: Job, estimate_completion_s: float) -> float:
        """Latest dispatch time that still (predictably) meets the deadline."""
        if math.isinf(job.deadline):
            return math.inf
        return job.deadline - self.safety_factor * estimate_completion_s

    @abstractmethod
    def decide(
        self, job: Job, now: float, estimate_completion_s: float
    ) -> ScheduleDecision:
        """Schedule one job released at ``now``."""

    def _clamp(self, job: Job, now: float, target: float, estimate: float
               ) -> ScheduleDecision:
        """Clamp a desired dispatch time into [now, latest-safe-start]."""
        latest = self.latest_safe_start(job, estimate)
        dispatch = min(target, latest)
        dispatch = max(dispatch, now)
        return ScheduleDecision(job_id=job.job_id, dispatch_at=dispatch)


class EagerScheduler(Scheduler):
    """Dispatch the instant a job is released."""

    name = "eager"
    needs_estimate = False

    def decide(
        self, job: Job, now: float, estimate_completion_s: float
    ) -> ScheduleDecision:
        return ScheduleDecision(job_id=job.job_id, dispatch_at=now)


class DeadlineBatcher(Scheduler):
    """Defer dispatches to window boundaries, bounded by deadline safety.

    Jobs released anywhere inside one window all dispatch at its end, so
    they hit the platform together: the first pays a cold start, the rest
    land on warm instances (or freshly warm pools).  A job whose slack
    cannot tolerate the full deferral dispatches at its latest safe start
    instead — and immediately if even that has passed.
    """

    name = "batcher"

    def __init__(self, window_s: float = 300.0, safety_factor: float = 1.5) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be > 0, got {window_s}")
        if safety_factor < 1.0:
            raise ValueError("safety factor must be >= 1")
        self.window_s = window_s
        self.safety_factor = safety_factor

    def decide(
        self, job: Job, now: float, estimate_completion_s: float
    ) -> ScheduleDecision:
        boundary = math.floor(now / self.window_s + 1.0) * self.window_s
        return self._clamp(job, now, boundary, estimate_completion_s)


class CostWindowScheduler(Scheduler):
    """Dispatch at the cheapest instant inside the job's slack.

    ``price_fn(t)`` is any time-varying cost signal — an electricity or
    spot-price curve, or the reciprocal of predicted uplink bandwidth
    (transfers are cheaper in energy and time when the link is fast).
    The slack interval is sampled every ``resolution_s`` and the earliest
    minimising instant wins.
    """

    name = "costwindow"

    def __init__(
        self,
        price_fn: Callable[[float], float],
        resolution_s: float = 300.0,
        safety_factor: float = 1.5,
        max_samples: int = 2000,
    ) -> None:
        if resolution_s <= 0:
            raise ValueError("resolution must be > 0")
        if safety_factor < 1.0:
            raise ValueError("safety factor must be >= 1")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.price_fn = price_fn
        self.resolution_s = resolution_s
        self.safety_factor = safety_factor
        self.max_samples = max_samples

    def decide(
        self, job: Job, now: float, estimate_completion_s: float
    ) -> ScheduleDecision:
        latest = self.latest_safe_start(job, estimate_completion_s)
        horizon = min(latest, now + self.resolution_s * self.max_samples)
        if math.isinf(horizon):
            # Unbounded slack: scan one diurnal period.
            horizon = now + 86_400.0
        if horizon <= now:
            return self._clamp(job, now, now, estimate_completion_s)
        best_t = now
        best_price = self.price_fn(now)
        t = now
        while t < horizon:
            t = min(t + self.resolution_s, horizon)
            price = self.price_fn(t)
            if price < best_price - 1e-12:
                best_price = price
                best_t = t
        return self._clamp(job, now, best_t, estimate_completion_s)


class BatteryAwareScheduler(Scheduler):
    """Defers maximally while the device battery is low.

    Radio transmission is the most power-hungry UE activity, so a job
    released on a low battery should wait: the user may reach a charger
    within the slack.  When the battery fraction (read through
    ``battery_fraction_fn``, typically ``lambda: ue.battery_fraction``)
    is below ``threshold``, the job is pushed to its latest safe start;
    otherwise the wrapped inner scheduler decides.
    """

    name = "battery"

    def __init__(
        self,
        battery_fraction_fn: Callable[[], float],
        inner: Optional[Scheduler] = None,
        threshold: float = 0.2,
        safety_factor: float = 1.5,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if safety_factor < 1.0:
            raise ValueError("safety factor must be >= 1")
        self.battery_fraction_fn = battery_fraction_fn
        self.inner = inner if inner is not None else EagerScheduler()
        self.threshold = threshold
        self.safety_factor = safety_factor

    def decide(
        self, job: Job, now: float, estimate_completion_s: float
    ) -> ScheduleDecision:
        if self.battery_fraction_fn() < self.threshold:
            latest = self.latest_safe_start(job, estimate_completion_s)
            if math.isinf(latest):
                # No deadline to anchor on: hold for a conservative grace
                # period rather than forever.
                latest = now + 4 * 3600.0
            return self._clamp(job, now, latest, estimate_completion_s)
        return self.inner.decide(job, now, estimate_completion_s)


__all__ = [
    "BatteryAwareScheduler",
    "CostWindowScheduler",
    "DeadlineBatcher",
    "EagerScheduler",
    "ScheduleDecision",
    "Scheduler",
]
