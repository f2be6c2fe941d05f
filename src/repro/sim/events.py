"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
starts *pending*, is *triggered* exactly once (either with a value via
:meth:`Event.succeed` or with an exception via :meth:`Event.fail`), and then
notifies its callbacks when the kernel processes it.

Composite events (:class:`AllOf`, :class:`AnyOf`) let a process wait for
conjunctions and disjunctions of other events, which the serverless and
network substrates use to model fan-out/fan-in of parallel work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Simulator

_PENDING = object()


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a non-pending event."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied; it is
    commonly a human-readable reason or the object responsible.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events are created in the *pending* state.  Calling :meth:`succeed` or
    :meth:`fail` *triggers* them: the kernel enqueues the event and, when the
    clock reaches its scheduled time, runs every registered callback.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception.

        Raises :class:`AttributeError` while the event is still pending so
        that accidental early reads fail loudly.
        """
        if self._value is _PENDING:
            raise AttributeError("event value is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def _trigger(self, ok: bool, value: Any) -> None:
        """Record the one-shot outcome.

        The single source of ``triggered`` semantics: ``succeed``,
        ``fail`` and the kernel's ``call_at`` all route through here, so
        the pending check and state transition can never drift apart.
        """
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = ok
        self._value = value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        # The trigger guard is inlined (hot path): ``_ok`` stays at its
        # construction-time ``True`` because only ``fail``/``_trigger``
        # ever clear it and both are trigger-once guarded.
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._value = value
        # Append to the immediate fast lane directly: triggering can only
        # happen once (guarded above), so the kernel-side ``_scheduled``
        # bookkeeping is unnecessary on this path.
        self.sim._fast.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._fast.append(self)
        return self

    # -- kernel hooks -------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None  # type: ignore[assignment]
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay
        # A fresh event is always pending, so the trigger guard is
        # unnecessary; ``_ok`` is already True.
        self._value = value
        if delay == 0:
            # Zero-delay fast path: skip the ``_enqueue_at`` clock
            # comparison — ``now + 0.0 == now`` routes to the fast lane
            # unconditionally.
            self._scheduled = True
            sim._fast.append(self)
        else:
            sim._enqueue_at(sim.now + delay, self)


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: Sequence[Event] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share one Simulator")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
                if self._value is not _PENDING:
                    break
            else:
                event.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._value is not _PENDING and e._ok}

    def _release(self) -> None:
        """Unhook from every child still pending, once this has fired.

        The callback would return at once, so dispatch is unchanged; a
        pending child that never fires (a sibling still in flight when
        the run stops) then no longer holds this condition, which holds
        it back through :attr:`events`, in a cycle.
        """
        on_child = self._on_child
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None and on_child in callbacks:
                callbacks.remove(on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails, propagating the child's exception.
    The success value is a dict mapping each child event to its value.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            self._release()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds.

    Fails only if *all* children fail; the exception of the last failing
    child is propagated.  The success value is a dict of every child that
    has succeeded by the time the condition fires.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if event._ok:
            self.succeed(self._collect())
            self._release()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.fail(event._value)


__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Timeout",
]
