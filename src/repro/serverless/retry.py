"""Retry policies for transient invocation failures.

Serverless platforms fail a small fraction of attempts (sandbox kills,
service hiccups); production offloading retries them with exponential
backoff.  :func:`invoke_with_retries` wraps
:meth:`~repro.serverless.platform.ServerlessPlatform.invoke` in a policy
and returns a :class:`RetriedInvocation` that accounts the *total* bill
including failed attempts — which matters, since failed attempts bill
for the time they ran.

Two degradation-aware variants serve the fault-injection layer:

* ``outage_aware=True`` makes the retry loop consult the platform's
  outage windows and push attempts past a known dead zone instead of
  burning the budget into it;
* :func:`invoke_hedged` races a duplicate invocation against a primary
  that has been running suspiciously long — the classic tail-latency
  hedge, here used against injected stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, NamedTuple, Optional

from repro.serverless.function import Invocation, InvocationRequest
from repro.serverless.platform import InvocationFailedError, ServerlessPlatform
from repro.sim import Event
from repro.sim.rng import RngStream
from repro.telemetry.tracer import PHASE_RETRY


class RetriesExhaustedError(RuntimeError):
    """All attempts of a retried invocation failed."""

    def __init__(self, function: str, attempts: int, wasted_usd: float) -> None:
        super().__init__(
            f"{function}: {attempts} attempts failed (${wasted_usd:.2e} billed)"
        )
        self.function = function
        self.attempts = attempts
        self.wasted_usd = wasted_usd


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with optional jitter.

    Attempt *k* (0-based) waits ``base_delay_s * multiplier**k`` before
    retrying, multiplied by a uniform jitter in ``[1-jitter, 1+jitter]``
    when an RNG is supplied.
    """

    max_attempts: int = 3
    base_delay_s: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_before_attempt(
        self, attempt: int, rng: Optional[RngStream] = None
    ) -> float:
        """Backoff before (0-based) ``attempt``; attempt 0 never waits."""
        if attempt <= 0:
            return 0.0
        delay = self.base_delay_s * self.multiplier ** (attempt - 1)
        if rng is not None and self.jitter > 0:
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay


class RetriedInvocation(NamedTuple):
    """Final outcome of a retried invocation."""

    invocation: Invocation
    attempts: int
    wasted_usd: float  # billed by failed attempts
    backoff_s: float  # total time spent waiting between attempts

    @property
    def total_cost(self) -> float:
        """Successful attempt's bill plus everything wasted on failures."""
        return self.invocation.cost + self.wasted_usd


def invoke_with_retries(
    platform: ServerlessPlatform,
    request: InvocationRequest,
    policy: Optional[RetryPolicy] = None,
    rng: Optional[RngStream] = None,
    outage_aware: bool = False,
) -> Event:
    """Invoke with retries; the process event yields a
    :class:`RetriedInvocation` or fails with :class:`RetriesExhaustedError`.

    With ``outage_aware=True`` every attempt (including the first) is
    delayed until a platform zone outage known to cover its start time has
    cleared — attempts are too precious to burn into a dead zone.
    """
    policy = policy if policy is not None else RetryPolicy()
    return platform.sim.spawn(
        retry_body(platform, request, policy, rng, outage_aware),
        name=f"{platform.name}.retry.{request.function}",
    )


def retry_body(
    platform: ServerlessPlatform,
    request: InvocationRequest,
    policy: RetryPolicy,
    rng: Optional[RngStream],
    outage_aware: bool = False,
) -> Generator[Event, object, RetriedInvocation]:
    """The retry loop of :func:`invoke_with_retries`, for ``yield from``.

    Each attempt runs inline (``yield from platform.invoke``), so the
    same rule holds here: never delegate into it from a process that
    anyone interrupts.
    """
    wasted = 0.0
    backoff_total = 0.0
    last_error: Optional[InvocationFailedError] = None
    tracer = platform.sim.tracer
    trace_parent = request.trace_parent
    for attempt in range(policy.max_attempts):
        delay = policy.delay_before_attempt(attempt, rng)
        if outage_aware:
            target_t = platform.sim.now + delay
            clear = platform.outage_clear_time(at=target_t)
            if clear is not None and clear > target_t:
                delay = clear - platform.sim.now
                platform.metrics.counter(
                    f"{platform.name}.retry.outage_waits"
                ).increment()
        if delay > 0:
            backoff_total += delay
            backoff_span = tracer.start_span(
                "backoff",
                category=PHASE_RETRY,
                parent=trace_parent,
                attempt=attempt,
            )
            yield platform.sim.timeout(delay)
            tracer.end_span(backoff_span)
        try:
            invocation: Invocation = yield from platform.invoke(request)
        except InvocationFailedError as error:
            wasted += error.billed_usd
            # Kept only as the final error's cause, without the traceback
            # that holds this frame (which holds it): no cycle outlives
            # the run.
            last_error = error.with_traceback(None)
            cause = type(error).__name__
            tracer.instant(
                "attempt_failed",
                parent=trace_parent,
                attempt=attempt,
                cause=cause,
                wasted_usd=error.billed_usd,
            )
            if tracer.enabled:
                tracer.metrics.counter(
                    "attempts_failed_total",
                    function=request.function,
                    cause=cause,
                ).increment()
            continue
        return RetriedInvocation(
            invocation=invocation,
            attempts=attempt + 1,
            wasted_usd=wasted,
            backoff_s=backoff_total,
        )
    raise RetriesExhaustedError(
        request.function, policy.max_attempts, wasted
    ) from last_error


# -- hedging ---------------------------------------------------------------


class HedgedInvocation(NamedTuple):
    """Final outcome of a (possibly) hedged invocation.

    Field semantics match :class:`RetriedInvocation` for the *winning*
    lane; ``wasted_usd`` additionally includes whatever a losing lane had
    provably burned by the time the winner finished.  A losing lane still
    in flight is abandoned — its eventual bill lands on the platform
    ledger, not on this outcome (exactly like a real duplicate request
    you stop waiting for).
    """

    invocation: Invocation
    attempts: int
    wasted_usd: float
    backoff_s: float
    hedged: bool

    @property
    def total_cost(self) -> float:
        """Winning attempt's bill plus all accounted waste."""
        return self.invocation.cost + self.wasted_usd


def guarded(
    body: Generator[Event, object, object],
) -> Generator[Event, object, tuple]:
    """Run ``body`` inline and return its outcome as a value that never
    fails: ``(True, value)`` on success, ``(False, error)`` on failure.

    The error keeps no traceback: its frames hold the processes that
    raised and relayed it, and those hold the error as their value, so
    every failure would leave a cycle behind its run.  The degraded
    cloud episode spawns ``guarded(retry_body(...))`` when nothing
    hedges; nothing interrupts that process, so the attempts may run
    inline.
    """
    try:
        value = yield from body
    except BaseException as error:  # noqa: BLE001 - relayed, not hidden
        return (False, error.with_traceback(None))
    return (True, value)


def guard_event(platform: ServerlessPlatform, event: Event) -> Event:
    """Wrap ``event`` in a process that never fails (see :func:`guarded`),
    so races over it can distinguish outcomes without AnyOf's
    all-must-fail semantics getting in the way."""

    def wait() -> Generator[Event, object, object]:
        return (yield event)

    return platform.sim.spawn(
        guarded(wait()), name=f"{platform.name}.hedge.guard"
    )


def invoke_hedged(
    platform: ServerlessPlatform,
    request: InvocationRequest,
    policy: Optional[RetryPolicy] = None,
    rng: Optional[RngStream] = None,
    hedge_after_s: Optional[float] = None,
    outage_aware: bool = False,
) -> Event:
    """Invoke with retries, hedging a duplicate after ``hedge_after_s``.

    The process event yields a :class:`HedgedInvocation` (the first lane
    to succeed wins; ``None`` hedge delay degenerates to plain retries)
    or fails with the last lane's error when every lane fails.
    """
    if hedge_after_s is not None and hedge_after_s <= 0:
        raise ValueError(f"hedge_after_s must be > 0, got {hedge_after_s}")
    return platform.sim.spawn(
        _hedged_proc(platform, request, policy, rng, hedge_after_s, outage_aware),
        name=f"{platform.name}.hedged.{request.function}",
    )


def _hedged_proc(
    platform: ServerlessPlatform,
    request: InvocationRequest,
    policy: Optional[RetryPolicy],
    rng: Optional[RngStream],
    hedge_after_s: Optional[float],
    outage_aware: bool,
) -> Generator[Event, object, HedgedInvocation]:
    sim = platform.sim

    def lane() -> Event:
        return invoke_with_retries(
            platform, request, policy=policy, rng=rng, outage_aware=outage_aware
        )

    if hedge_after_s is None:
        outcome: RetriedInvocation = yield lane()
        return HedgedInvocation(
            invocation=outcome.invocation,
            attempts=outcome.attempts,
            wasted_usd=outcome.wasted_usd,
            backoff_s=outcome.backoff_s,
            hedged=False,
        )

    primary = guard_event(platform, lane())
    yield sim.any_of([primary, sim.timeout(hedge_after_s)])
    if primary.triggered:
        ok, payload = primary.value
        if ok:
            return HedgedInvocation(
                invocation=payload.invocation,
                attempts=payload.attempts,
                wasted_usd=payload.wasted_usd,
                backoff_s=payload.backoff_s,
                hedged=False,
            )
        raise payload

    platform.metrics.counter(f"{platform.name}.hedges").increment()
    sim.tracer.instant(
        "hedge_started",
        parent=request.trace_parent,
        function=request.function,
        after_s=hedge_after_s,
    )
    lanes = [primary, guard_event(platform, lane())]
    while True:
        finished_ok = [g for g in lanes if g.triggered and g.value[0]]
        if finished_ok:
            winner: RetriedInvocation = finished_ok[0].value[1]
            lost = sum(
                g.value[1].wasted_usd
                for g in lanes
                if g.triggered
                and not g.value[0]
                and isinstance(g.value[1], RetriesExhaustedError)
            )
            return HedgedInvocation(
                invocation=winner.invocation,
                attempts=winner.attempts,
                wasted_usd=winner.wasted_usd + lost,
                backoff_s=winner.backoff_s,
                hedged=True,
            )
        pending = [g for g in lanes if not g.triggered]
        if not pending:
            # Every lane failed.  Raising just the last lane's error
            # would silently drop the other lane's wasted spend and
            # attempt count, so the caller's exactly-once accounting
            # (cost += error.wasted_usd) under-bills the episode.
            # Aggregate across lanes instead.
            errors = [g.value[1] for g in lanes]
            exhausted = [
                e for e in errors if isinstance(e, RetriesExhaustedError)
            ]
            if len(exhausted) < len(errors):
                # A non-retry failure (unexpected) propagates as-is.
                raise next(
                    e for e in errors
                    if not isinstance(e, RetriesExhaustedError)
                )
            raise RetriesExhaustedError(
                request.function,
                attempts=sum(e.attempts for e in exhausted),
                wasted_usd=sum(e.wasted_usd for e in exhausted),
            ) from exhausted[-1]
        yield sim.any_of(pending)


__all__ = [
    "HedgedInvocation",
    "RetriedInvocation",
    "RetriesExhaustedError",
    "RetryPolicy",
    "guard_event",
    "guarded",
    "invoke_hedged",
    "invoke_with_retries",
    "retry_body",
]
