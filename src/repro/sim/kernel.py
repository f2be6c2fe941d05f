"""The discrete-event simulation kernel: clock, event heap, processes.

The :class:`Simulator` owns two pending-event structures:

* an **immediate fast lane** — a FIFO deque of items scheduled at exactly
  the current time.  Triggered events (``succeed``/``fail``), process
  bootstraps, interrupts and zero-delay timeouts all land here, which is
  the dominant case in offloading workloads; the deque avoids the heap's
  tuple allocation and sift cost entirely.
* a binary heap of ``[time, sequence, event]`` entries for future events.
  ``sequence`` is a monotonically increasing tie-breaker, which makes
  same-timestamp ordering deterministic (insertion order).

The two structures together preserve the documented ``(time, sequence)``
contract exactly: heap entries at the current timestamp were necessarily
scheduled *before* the clock arrived there (anything scheduled at the
current time goes to the fast lane instead), so they always precede the
fast lane's contents in insertion order.  ``run()`` therefore drains
same-time heap entries first, then the fast lane FIFO — byte-identical
dispatch order to a single global heap, at a fraction of the cost.

``run()`` also dispatches the fast lane in **batches** (O3): once the
same-time heap entries are drained, nothing can re-enter the heap at
the current timestamp — ``_enqueue_at`` routes every ``when == now``
item to the fast lane — so the whole lane can be drained without
re-checking the heap or the clock per event.  Per-event bookkeeping
(meter updates, the heap-front comparison, the clock read) is amortised
across the batch; counters accumulate in locals and flush to the
:class:`~repro.perf.meter.RuntimeMeter` when ``run()`` exits.  Dispatch
order is byte-identical to dispatching one event at a time.  See
``docs/modeling.md`` ("Performance") for the full ordering argument.

A :class:`Process` wraps a generator.  The generator yields
:class:`~repro.sim.events.Event` objects; the process resumes when the
yielded event fires, receiving ``event.value`` (or having the failure
exception thrown into it).  A process is itself an event, so processes can
wait on each other, join fan-outs with ``AllOf``, and so on.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.perf.meter import RuntimeMeter
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Interrupt, Timeout
from repro.telemetry.tracer import NULL_TRACER


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class _Stop(BaseException):
    """The callback ``run(until=event)`` appends to its target.

    When the target is processed it runs the callbacks registered behind
    it, then raises itself to end that ``run()``.  It is its own
    exception so a nested ``run()`` can tell another run's stop from its
    own and let it unwind; a ``BaseException`` so that a callback's
    ``except Exception`` cannot swallow it.
    """

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: list) -> None:
        super().__init__()
        self.callbacks = callbacks

    def __call__(self, event: Event) -> None:
        callbacks = self.callbacks
        for callback in callbacks[callbacks.index(self) + 1:]:
            # A nested run() on the same target stops with this one.
            if type(callback) is not _Stop:
                callback(event)
        raise self


def _raised_in_body(exc: BaseException) -> BaseException:
    """``exc``, raised out of a process body, without the kernel frame
    that resumed the body.

    That frame holds the process, which is about to hold ``exc`` as its
    value: a reference cycle.  The body's own frames stay, so a waiter
    still sees where the error came from.
    """
    exc.__traceback__ = exc.__traceback__.tb_next  # type: ignore[union-attr]
    return exc


class _Bootstrap:
    """Fast-lane record that starts a freshly spawned process.

    Dispatches like an event (one kernel step, one ``events_processed``
    tick) but costs a single two-word allocation instead of an
    :class:`Event` plus its callback list.
    """

    __slots__ = ("process",)

    def __init__(self, process: "Process") -> None:
        self.process = process

    def _run_callbacks(self) -> None:
        self.process._start()


class _Throw:
    """Fast-lane record that delivers an exception into a process."""

    __slots__ = ("process", "exc")

    def __init__(self, process: "Process", exc: BaseException) -> None:
        self.process = process
        self.exc = exc

    def _run_callbacks(self) -> None:
        self.process._throw(self.exc)


class _ScheduledCall(Event):
    """The pre-triggered event behind :meth:`Simulator.call_at`.

    Runs its function before any externally appended callbacks, exactly
    like the callback-list ordering of the lambda it replaces — without
    allocating a closure per call.
    """

    __slots__ = ("fn",)

    def __init__(self, sim: "Simulator", fn: Callable[[], None]) -> None:
        super().__init__(sim)
        self.fn = fn

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None  # type: ignore[assignment]
        self.fn()
        for callback in callbacks:
            callback(self)


class Process(Event):
    """A running coroutine on the simulation timeline.

    The process event triggers when the underlying generator returns
    (successfully, with the ``return`` value) or raises (failed, with the
    exception).  Other processes may ``yield`` a process to join it.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick the process off via an immediately-dispatched record so that
        # spawn() never runs user code synchronously.
        sim._fast.append(_Bootstrap(self))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a silent no-op, mirroring the
        semantics of POSIX signal delivery to an exited task.
        """
        if self._value is not _PENDING:
            return
        self.sim._fast.append(_Throw(self, Interrupt(cause)))

    # -- internals ----------------------------------------------------------

    def _abandon(self) -> None:
        """Give up on a process whose wait can never end.

        For a process blocked on an event that will never trigger, and
        that nothing will interrupt (a failed job's downstream units).
        Waiting forever, it and its target (and whoever waits for it)
        hold one another in a reference cycle; abandoned, it stays
        suspended but holds neither.  Nothing is scheduled, so the run
        is the same as if it waited forever.
        """
        self._detach()
        self.callbacks.clear()

    def _start(self) -> None:
        """First resume: send ``None`` into the fresh generator."""
        if self._value is not _PENDING:
            return
        self._waiting_on = None
        try:
            target = self.generator.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process death is a result
            self.fail(_raised_in_body(exc))
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        if not event._ok:
            self._throw(event._value)
            return
        if self._value is not _PENDING:
            return
        self._waiting_on = None
        try:
            target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process death is a result
            self.fail(_raised_in_body(exc))
            return
        self._wait_on(target)

    def _detach(self) -> None:
        """Stop waiting on ``_waiting_on``: when it eventually fires it
        must not resume this process."""
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None

    def _throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING:
            return
        self._detach()
        # ``exc`` may be another process's value: the frames it passes
        # through here, which may hold that process, must not join it.
        # A body that dropped its traceback keeps it dropped.
        origin = exc.__traceback__
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            self.fail(err if err is exc else _raised_in_body(err))
            return
        finally:
            if exc.__traceback__ is not None:
                exc.__traceback__ = origin
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"
            )
        if target.callbacks is None:
            # The event already fired; resume on the next kernel step.  The
            # relay is tracked as ``_waiting_on`` and delivers through
            # ``_resume`` for success *and* failure, so an interrupt arriving
            # before the relay fires can detach it — otherwise the stale
            # outcome would be delivered a second time at the process's next
            # yield point.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else ("ok" if self.ok else "failed")
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Owner of the simulated clock and the pending-event structures.

    Parameters
    ----------
    start:
        Initial clock value (seconds).  Defaults to ``0.0``.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_fast",
        "_sequence",
        "tracer",
        "meter",
    )

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[list] = []
        #: Immediate fast lane: FIFO of items scheduled at exactly
        #: ``self._now``.  Holds events plus the lightweight dispatch
        #: records (:class:`_Bootstrap`, :class:`_Throw`); everything in
        #: it responds to ``_run_callbacks``.
        self._fast: deque = deque()
        self._sequence = 0
        #: The telemetry sink every instrumented subsystem consults.  The
        #: shared null tracer keeps the disabled path to one attribute
        #: read per instrumented *operation* — the kernel loop itself
        #: never touches it.  Install a real one with
        #: :func:`repro.telemetry.attach_tracer`.
        self.tracer = NULL_TRACER
        #: Always-on self-metering.  The dispatch loops split the former
        #: event counter into fast-lane vs heap hits — same per-event
        #: cost (one int add on a hoisted local) — and the controller's
        #: plan path books into the same meter.  ``events_processed``
        #: reads the two lanes back; reports snapshot the whole meter.
        self.meter = RuntimeMeter()

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events the kernel has dispatched."""
        meter = self.meter
        return meter.fast_lane_hits + meter.heap_hits

    # -- event construction -----------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` succeeds."""
        return AnyOf(self, events)

    def spawn(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator`` and return its handle."""
        return Process(self, generator, name=name)

    # Alias familiar to SimPy users.
    process = spawn

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` as a callback at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        event = _ScheduledCall(self, fn)
        # Route the outcome through the shared trigger helper so that
        # ``triggered``/``processed`` semantics stay single-sourced with
        # succeed()/fail() — no hand-poked ``_ok``/``_value``.
        event._trigger(True, None)
        self._enqueue_at(when, event)
        return event

    # -- scheduling internals ----------------------------------------------

    def _enqueue_at(self, when: float, event: Event) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        now = self._now
        if when == now:
            # Immediate: the fast lane preserves insertion order, which is
            # exactly the (time, sequence) contract at the current time.
            self._fast.append(event)
            return
        if when < now:
            raise SimulationError(
                f"cannot schedule at t={when} before current time t={now}"
            )
        self._sequence += 1
        heapq.heappush(self._heap, [when, self._sequence, event])

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock would pass that time (the clock is
          then advanced exactly to it);
        * an :class:`Event` — run until that event has been processed and
          return its value (raising its exception if it failed).

        All three share one loop.  The horizon is checked only when the
        heap is popped (fast-lane items fire at the current time, which
        is always within it) and is ``inf`` for an event target; an
        event target instead ends the loop through a :class:`_Stop`
        callback appended to it, so the lane drain checks nothing per
        event.

        The loop dispatches the fast lane in batches: after same-time
        heap entries drain, no new heap entry can appear at the current
        timestamp (``_enqueue_at`` routes those to the lane), so the
        whole lane is drained with one heap check and one clock read per
        batch instead of per event.  Meter counters accumulate in locals
        and flush on exit (including via exception), so mid-callback
        reads of ``events_processed`` see the pre-``run()`` value; read
        it after ``run()`` returns.
        """
        stop = None
        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                if until._ok:
                    return until._value
                raise until._value
            horizon = float("inf")
            stop = _Stop(until.callbacks)
            until.callbacks.append(stop)
        else:
            horizon = float("inf") if until is None else float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until t={horizon}: clock already at "
                    f"t={self._now}"
                )
        fast = self._fast
        heap = self._heap
        pop = heapq.heappop
        fast_pop = fast.popleft
        plain = Event
        meter = self.meter
        lane = 0  # every fast-lane dispatch in run() is part of a batch
        heap_hits = 0
        started = perf_counter()

        try:
            while True:
                if fast:
                    if heap and heap[0][0] == self._now:
                        # Same-time heap entries were scheduled before
                        # the clock arrived here: dispatch before the
                        # lane, one at a time (they may append more).
                        event = pop(heap)[2]
                        heap_hits += 1
                        event._run_callbacks()
                        continue
                    # Batch drain: no heap entry can appear at the
                    # current time while the clock holds still.
                    while fast:
                        event = fast_pop()
                        lane += 1
                        if type(event) is plain:
                            callbacks = event.callbacks
                            event.callbacks = None
                            for callback in callbacks:
                                callback(event)
                        else:
                            event._run_callbacks()
                elif heap:
                    when = heap[0][0]
                    if when > horizon:
                        break
                    event = pop(heap)[2]
                    self._now = when
                    heap_hits += 1
                    event._run_callbacks()
                else:
                    break
        except _Stop as stopped:
            if stopped is not stop:
                raise  # an outer run()'s target: unwind to that run
            stop.__traceback__ = None  # release the frames it pinned
        else:
            if stop is not None:
                raise SimulationError(
                    "simulation ran out of events before the target "
                    "event triggered (deadlock?)"
                )
            if horizon != float("inf"):
                self._now = horizon
            return None
        finally:
            if stop is not None:
                if until.callbacks is not None:
                    until.callbacks.remove(stop)
                # The target's list holds the stop; the stop must not
                # hold the list back, or each run leaves a cycle.
                stop.callbacks = None
            meter.fast_lane_hits += lane
            meter.batched_events += lane
            meter.heap_hits += heap_hits
            meter.kernel_flush_wall_s += perf_counter() - started
        if until._ok:
            return until._value
        raise until._value

    def close(self) -> None:
        """Release the pending world of a finished simulation.

        Every event still pending holds its waiters, and a waiting
        process holds the simulator through its generator frame, so a
        simulator with pending events (a pump, a keep-alive timer, the
        losing timeout of a race) is a reference cycle.  ``close``
        empties both lanes, drops the callbacks of every event they
        held and detaches the tracer, so the world is freed by
        reference counting as soon as its last outside reference goes.

        A suspended process freed here has its generator closed at this
        point: its ``finally`` blocks run now, and anything they trigger
        is released in the same call.  The clock, the meter and
        ``events_processed`` stay readable; nothing is left to run.
        Calling ``close`` again is a no-op.
        """
        heap, fast = self._heap, self._fast
        while heap or fast:
            pending = [entry[2] for entry in heap]
            pending.extend(fast)
            heap.clear()
            fast.clear()
            for event in pending:
                callbacks = getattr(event, "callbacks", None)
                if callbacks:
                    callbacks.clear()
            # Dropping the last references runs the freed generators'
            # ``finally`` blocks, which may enqueue more: loop.
            del pending
        self.tracer = NULL_TRACER

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pending = len(self._fast) + len(self._heap)
        return f"<Simulator t={self._now} pending={pending}>"


__all__ = ["Process", "SimulationError", "Simulator"]
