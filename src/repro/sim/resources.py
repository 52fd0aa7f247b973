"""Shared resources: mutual exclusion and queues.

Two families:

* :class:`Resource` — a fixed number of usage slots with a FIFO wait queue
  (``capacity=1`` gives a lock); the node CPUs and the cache metadata
  locks.
* :class:`Store` — a FIFO queue of Python objects with blocking
  ``put``/``get``; the disk request queues.

All wait events double as context managers, so the canonical usage is::

    with resource.request() as req:
        yield req
        ...  # holding the resource
    # released on exit

For waits that may be abandoned (e.g. after an interrupt), every pending
request supports :meth:`~BaseRequest.cancel`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from .events import URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "Request",
    "Release",
    "Resource",
    "Store",
    "StorePut",
    "StoreGet",
]


class BaseRequest(Event):
    """Common behaviour of resource/store wait events."""

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "BaseRequest":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel_or_release()

    def cancel(self) -> None:
        """Withdraw an untriggered request from its wait queue."""
        raise NotImplementedError

    def cancel_or_release(self) -> None:
        """Cancel if still pending; otherwise perform the matching release."""
        raise NotImplementedError


class Request(BaseRequest):
    """A claim on one slot of a :class:`Resource`."""

    __slots__ = ("usage_since", "_requested_at")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource)
        #: Simulation time at which the request was granted.
        self.usage_since: Optional[float] = None
        #: Simulation time at which the request entered the wait queue
        #: (carried on the request itself — the former id-keyed side
        #: table cost a dict insert/pop per request on the hot path).
        self._requested_at = resource.env.now
        resource._queue.append(self)
        resource._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Release(Event):
    """Immediate event confirming a :class:`Resource` release."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        self._ok = True
        self._value = None
        self.env.schedule(self, priority=URGENT)


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

    def release(self, request: Request) -> Release:
        """Free the slot held by ``request``."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} does not hold {self!r}"
            ) from None
        if request.usage_since is not None:
            self.busy_time += self.env.now - request.usage_since
        release = Release(self, request)
        self._trigger()
        return release

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._queue.popleft()
            self.users.append(req)
            now = self.env.now
            req.usage_since = now
            self.total_wait += now - req._requested_at
            self.grants += 1
            req.succeed()


class StorePut(BaseRequest):
    """Pending insertion into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store)
        self.item = item
        store._put_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._put_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class StoreGet(BaseRequest):
    """Pending removal from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store)
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._get_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class Store:
    """FIFO queue of items with blocking ``put``/``get``.

    ``items`` and both wait queues are :class:`collections.deque`\\ s, so
    every hand-off pops from the left in O(1).
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        items = self.items
        puts = self._put_queue
        gets = self._get_queue
        while True:
            while puts and len(items) < self.capacity:
                put = puts.popleft()
                items.append(put.item)
                put.succeed()
            if not (gets and items):
                return
            while gets and items:
                gets.popleft().succeed(items.popleft())
