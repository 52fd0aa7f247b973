"""Shared resources: mutual exclusion and a FIFO hand-off queue.

Two primitives:

* :class:`Resource` — a fixed number of usage slots with a FIFO wait queue
  (``capacity=1`` gives a lock); the node CPUs and the cache metadata
  locks.  A caller yields ``resource.request()`` to wait for a slot and
  later calls ``resource.release(request)`` to free it.
* :class:`Store` — an unbounded FIFO queue of Python objects whose
  ``put`` never blocks and whose ``get`` waits for an item; the disk
  request queues.

Neither primitive schedules an event that nothing waits on.  A request
for a free slot that nobody waits for is granted when it is made, and a
release grants the freed slot to the next waiter on the spot, so the
only event either schedules is the granted :class:`Request`; a ``put``
appends the item, or hands it straight to a waiting getter by triggering
that getter's :class:`StoreGet`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from .events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "Request",
    "Resource",
    "Store",
    "StoreGet",
]


class Request(Event):
    """A claim on one slot of a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "usage_since", "_requested_at")

    def __init__(self, resource: "Resource") -> None:
        # Most requests find their slot free, so the base initializer is
        # inlined and a free slot that nobody waits for is granted here,
        # with the bookkeeping of Resource._trigger and the queue entry
        # of Event.succeed.
        env = self.env = resource.env
        self.callbacks = []
        self._ok = True
        self._defused = False
        #: The claimed resource (the race log groups events by it).
        self.resource = resource
        now = env.now
        #: Simulation time at which the request entered the wait queue
        #: (carried on the request itself — the former id-keyed side
        #: table cost a dict insert/pop per request on the hot path).
        self._requested_at = now
        #: Simulation time at which the request was granted.
        self.usage_since: Optional[float] = None
        if resource._queue or len(resource.users) >= resource.capacity:
            # A waiter means every slot is taken, so this one queues.
            self._value = PENDING
            resource._queue.append(self)
            return
        resource.users.append(self)
        self.usage_since = now
        resource.grants += 1  # after a 0.0 ms wait: total_wait is unchanged
        self._value = None
        env._eid += 1
        env._push((now, NORMAL, env._eid, self))


class Resource:
    """``capacity`` usage slots with FIFO granting.

    Statistics
    ----------
    The resource tracks cumulative queueing delay and usage so that callers
    can derive utilization and contention without extra instrumentation:
    ``total_wait`` (ms spent by granted requests waiting), ``grants``
    (number of granted requests), and ``busy_time`` (slot-milliseconds of
    usage, accumulated at release).
    """

    __slots__ = (
        "env",
        "capacity",
        "users",
        "_queue",
        "total_wait",
        "grants",
        "busy_time",
    )

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        #: FIFO wait queue; a deque so granting is O(1) per request
        #: instead of the O(n) shift of ``list.pop(0)``.
        self._queue: deque[Request] = deque()
        self.total_wait = 0.0
        self.grants = 0
        self.busy_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def waiting(self) -> int:
        """Number of requests queued but not granted."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` and grant it to the next
        waiter, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} does not hold {self!r}"
            ) from None
        if request.usage_since is not None:
            self.busy_time += self.env.now - request.usage_since
        if self._queue:
            self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._queue.popleft()
            self.users.append(req)
            now = self.env.now
            req.usage_since = now
            self.total_wait += now - req._requested_at
            self.grants += 1
            req.succeed()


class StoreGet(Event):
    """Pending removal from a :class:`Store`; fires with the item."""

    __slots__ = ("resource",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        #: The store taken from (the race log groups events by it).
        self.resource = store
        # Getters wait only while the store is empty, so an item on hand
        # means no earlier getter is queued ahead of this one.
        if store.items:
            self.succeed(store.items.popleft())
        else:
            store._get_queue.append(self)


class Store:
    """Unbounded FIFO queue of items: ``put`` never blocks, ``get`` waits
    for an item.

    ``items`` and the getter queue are :class:`collections.deque`\\ s, so
    every hand-off pops from the left in O(1).
    """

    __slots__ = ("env", "items", "_get_queue")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Append ``item``, or hand it straight to the oldest waiting
        getter."""
        if self._get_queue:
            self._get_queue.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Take the oldest item; the returned event fires with it."""
        return StoreGet(self)
