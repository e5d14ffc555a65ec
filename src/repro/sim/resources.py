"""Inter-process communication and mutual exclusion primitives."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.events import Event


class Store:
    """An unbounded (or bounded) FIFO channel between processes.

    ``put`` returns an event that succeeds once the item is stored;
    ``get`` returns an event that succeeds with the next item, blocking
    the caller until one is available.
    """

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item) pairs

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Store ``item``; blocks (pending event) if at capacity."""
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self._deposit(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Retrieve the oldest item, waiting if the store is empty."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _deposit(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue  # cancelled / interrupted waiter
            getter.succeed(item)
            return
        self.items.append(item)

    def _admit_putter(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            if putter.triggered:
                continue
            self._deposit(item)
            putter.succeed()


class Resource:
    """A counted resource (semaphore) with FIFO granting."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        """Request one unit; the event succeeds when granted."""
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()
            return
        self.in_use -= 1
