"""Contended discrete resources: semaphores, mutexes, FIFO queues.

These model the *control plane* of the system (runtime queues, lock
holders).  Data-plane bandwidth is modeled separately by
:mod:`repro.sim.fluid`.

A semaphore reports its grants and releases to its engine's ``monitor``
(the race detector's release→acquire edges); ``None`` means off, at the
cost of one attribute load and an ``is None`` test per call.
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
        monitor = self.engine.monitor
        if monitor is not None:
            monitor.on_acquire(self, ev)
        return ev

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._held <= 0:
            raise SimulationError("release() without a matching acquire()")
        monitor = self.engine.monitor
        if monitor is not None:
            monitor.on_release(self)
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._held -= 1


class Mutex(Semaphore):
    """A binary semaphore."""

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, capacity=1)


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
