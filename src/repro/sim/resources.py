"""Contended discrete resources: semaphores, mutexes, stores, FIFO queues.

These model the *control plane* of the system (runtime queues, lock
holders, mailbox channels).  Data-plane bandwidth is modeled separately
by :mod:`repro.sim.fluid`.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Semaphore:
    """A counting semaphore with FIFO wakeup order."""

    def __init__(self, engine: "Engine", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._held = 0
        self._waiters: collections.deque[Event] = collections.deque()

    @property
    def held(self) -> int:
        return self._held

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.engine, name="sem.acquire")
        if self._held < self.capacity and not self._waiters:
            self._held += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._held <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._held -= 1


class Mutex(Semaphore):
    """A binary semaphore."""

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, capacity=1)


class Store:
    """An unbounded producer/consumer channel of Python objects."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._items: collections.deque[_t.Any] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: _t.Any) -> None:
        """Deposit an item, waking the oldest blocked getter."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.engine, name="store.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class FifoQueue:
    """A single-server FIFO service center with a fixed service time.

    Used to model serialization points that are not bandwidth-shaped,
    e.g. a coherence directory that processes one protocol message at a
    time.  ``submit`` returns an event that fires when the job finishes.
    """

    def __init__(self, engine: "Engine", service_time: float, name: str = "fifo") -> None:
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time}")
        self.engine = engine
        self.service_time = service_time
        self.name = name
        self._busy_until = 0.0
        self.jobs_served = 0

    def submit(self, service_time: float | None = None) -> Event:
        """Enqueue a job; the returned event fires at its completion time."""
        cost = self.service_time if service_time is None else service_time
        now = self.engine.now
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        self.jobs_served += 1
        return self.engine.timeout(self._busy_until - now)
