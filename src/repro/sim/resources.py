"""Contended resources for the discrete-event kernel.

Two classic primitives:

* :class:`Resource` — a counted server pool with a FIFO wait queue
  (models CPUs, network links treated as slot-limited, concurrency limits);
* :class:`Container` — a continuous level with blocking put/get
  (models battery charge and byte budgets).

All wait queues break ties by insertion order so that contended runs are
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Yield it to block until granted; pass it to
    :meth:`Resource.release` when done.  A granted request's value is
    ``None``: keep the request from the :meth:`Resource.request` call
    (a request that was its own value would be a reference cycle).
    """

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource") -> None:
        super().__init__(sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    __slots__ = ("sim", "capacity", "_users", "_queue")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently granted."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted.

        The grant's value is ``None``; the request itself is the handle
        to pass to :meth:`release`.

        The uncontended case (free capacity, empty queue — the common one
        in offloading runs) grants inline with no queue churn: the request
        never touches the wait deque, only the users set and the kernel's
        immediate fast lane.
        """
        req = Request(self.sim, self)
        users = self._users
        if len(users) < self.capacity:
            users.add(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot to the pool.

        Releasing a request that was never granted (still queued) cancels
        it instead.
        """
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                raise RuntimeError(
                    "release() called with a request unknown to this resource"
                ) from None

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Container:
    """A continuous quantity (energy, bytes) with blocking put/get.

    ``get(amount)`` blocks until the level covers ``amount``; ``put(amount)``
    blocks until the level plus ``amount`` fits under ``capacity``.
    """

    __slots__ = ("sim", "capacity", "_level", "_getters", "_putters")

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init level {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires when it fits under ``capacity``.

        Uncontended fast path: no putter is queued ahead (FIFO fairness)
        and the amount fits, so the level moves inline; any getters that
        become satisfiable are settled exactly as the general path would.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        event = Event(self.sim)
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            event.succeed(None)
            if self._getters:
                self._settle()
        else:
            self._putters.append((event, amount))
            self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires when the level covers it.

        Uncontended fast path mirrors :meth:`put`: no getter queued ahead
        and the level covers the amount, so it is withdrawn inline; the
        freed headroom may then admit waiting putters.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds container capacity {self.capacity}"
            )
        event = Event(self.sim)
        if not self._getters and self._level >= amount:
            self._level -= amount
            event.succeed(amount)
            if self._putters:
                self._settle()
        else:
            self._getters.append((event, amount))
            self._settle()
        return event

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed(None)
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progress = True


__all__ = [
    "Container",
    "Request",
    "Resource",
]
