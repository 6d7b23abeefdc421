"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted resource (e.g. CPU cores) with FIFO queueing.
* :class:`Store` — a buffer of discrete objects (e.g. a packet queue).
* :class:`Container` — a continuous reservoir (e.g. seconds of buffered video).

All requests are events; processes ``yield`` them and are resumed when the
request is granted.  Requests also work as context managers so the common
pattern reads::

    with resource.request() as req:
        yield req
        ...   # holding the resource
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Environment, Event, SimulationError


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource"):
        # Event.__init__ inlined: the CPU model requests a core for every
        # task and every round-robin requeue.
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._scheduled = False
        self.resource = resource
        resource._request(self)

    def cancel(self) -> None:
        """Withdraw the claim (release if already granted)."""
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()


class Resource:
    """``capacity`` identical slots, granted in FIFO order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def _request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def release(self, request: Request) -> None:
        """Return a slot (or withdraw a queued claim). Idempotent."""
        try:
            self.users.remove(request)
        except ValueError:
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get(self)


class StorePut(Event):
    """Pending insertion into a :class:`Store`."""

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put(self)


class Store:
    """FIFO buffer of Python objects with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires when there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the oldest item; fires when one is available."""
        return StoreGet(self)

    def _put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)

    def _get(self, event: StoreGet) -> None:
        if self.items:
            event.succeed(self.items.popleft())
            self._serve_putters()
        else:
            self._getters.append(event)

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())

    def _serve_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            put = self._putters.popleft()
            self.items.append(put.item)
            put.succeed()
            self._serve_getters()


class ContainerGet(Event):
    """Pending withdrawal of ``amount`` from a :class:`Container`."""

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._get(self)


class ContainerPut(Event):
    """Pending deposit of ``amount`` into a :class:`Container`."""

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._put(self)


class Container:
    """A continuous-level reservoir bounded by ``capacity``.

    Used, e.g., for the video playback buffer: the downloader ``put``s
    seconds of content, the renderer ``get``s them.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        """Current contents."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; fires when it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; fires when the level covers it."""
        return ContainerGet(self, amount)

    def _put(self, event: ContainerPut) -> None:
        self._putters.append(event)
        self._settle()

    def _get(self, event: ContainerGet) -> None:
        self._getters.append(event)
        self._settle()

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and self._level + self._putters[0].amount <= self.capacity:
                put = self._putters.popleft()
                self._level += put.amount
                put.succeed()
                progress = True
            if self._getters and self._level >= self._getters[0].amount:
                get = self._getters.popleft()
                self._level -= get.amount
                get.succeed()
                progress = True


__all__ = [
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "StoreGet",
    "StorePut",
]
