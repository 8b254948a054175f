"""Synchronization primitives for simulated processes.

All primitives are strictly FIFO: waiters are granted in arrival order, which
both matches RocksDB's writer queue semantics and keeps runs deterministic.

Usage pattern inside a process generator::

    yield lock.acquire()
    try:
        ...critical section...
    finally:
        lock.release()

``acquire()`` returns an :class:`~repro.sim.engine.Event` that is already
triggered when the resource is free, so the fast path does not deschedule the
process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event


class Semaphore:
    """Counting semaphore with FIFO waiters."""

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._available

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a unit is held by the caller."""
        ev = Event(self.engine)
        if self._available > 0 and not self._waiters:
            self._available -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._available > 0 and not self._waiters:
            self._available -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            if self._available >= self.capacity:
                raise SimulationError("semaphore released more times than acquired")
            self._available += 1


class Lock(Semaphore):
    """A mutex: a semaphore of capacity one."""

    def __init__(self, engine: Engine) -> None:
        super().__init__(engine, 1)


class Store:
    """Unbounded FIFO channel between processes (a work queue)."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: Deque[Any] = deque()
        # Blocked getters, oldest first.  A list, not a deque: a store has
        # one consumer process or a few, and an empty deque costs a 600-byte
        # block per store (thousands of stores per cluster sweep).
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue an item, waking one blocked getter if any."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event whose value is the next item."""
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
