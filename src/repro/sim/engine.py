"""The discrete-event engine: a virtual clock plus a binary-heap event queue.

The engine is deliberately small.  Time is a float in nanoseconds (see
:mod:`repro.units`).  Determinism matters for reproducibility, so ties in
time are broken by a monotonically increasing sequence number — two runs
of the same model produce byte-identical traces.

The future-event set is one ``heapq`` list of ``(when, seq, event)``
entries.  ``run()`` drives one dispatch loop (see ``docs/performance.md``):

* It reads the engine's own live :attr:`Engine.sinks` list and calls the
  sinks only when the list is non-empty.  The list is only mutated in
  place, so a sink added or removed inside a callback applies to the
  very next dispatch.
* :class:`~repro.sim.events.Timeout` objects are pooled: a timeout that
  reaches dispatch with no outside references left is recycled by the
  next ``engine.timeout(...)`` call instead of re-allocated.

None of this changes observable order: ``(when, seq)`` dispatch order,
sink call points, and error semantics are identical to the simple
``step()`` loop, which remains the readable reference implementation.

Instrumentation belongs to the engine.  Each engine carries three
slots: :attr:`Engine.obs` (a :class:`repro.obs.Observability`),
:attr:`Engine.monitor` (a :class:`repro.check.races.RaceSanitizer`) and
its event-sink list.  ``Engine.__init__`` copies them from
:data:`DEFAULTS`, the one process-wide setting, which
``Observability.install()``, ``RaceSanitizer.install()`` and the
determinism harness fill.  An engine's instrumentation is therefore
fixed when it is built: one built before ``install()`` or after
``uninstall()`` stays cold, so an observed and a cold engine can run
side by side in one process.  Every instrumented object reads its
engine's slots; ``None`` means off, at the cost of one attribute load
and an ``is None`` test.
"""

from __future__ import annotations

import heapq
import typing as _t
from sys import getrefcount

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams

#: cap on the per-engine recycled-timeout free list
_TIMEOUT_POOL_MAX = 64


class Instrumentation:
    """The instrumentation a new :class:`Engine` takes when it is built."""

    __slots__ = ("obs", "monitor", "sinks")

    def __init__(self) -> None:
        #: set by repro.obs.Observability.install()
        self.obs: _t.Any = None
        #: set by repro.check.races.RaceSanitizer.install()
        self.monitor: _t.Any = None
        #: filled by Observability.install() (metrics) and the determinism
        #: harness (trace capture)
        self.sinks: list[_t.Callable[..., None]] = []


#: the one process-wide default; each Engine copies it in ``__init__``
DEFAULTS = Instrumentation()


class Engine:
    """Event loop, virtual clock, and factory for events and processes.

    Typical use::

        eng = Engine(seed=7)

        def worker(eng):
            yield eng.timeout(10.0)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        assert proc.value == "done"
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        #: the future-event set: a ``heapq`` list ordered by (when, seq)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.rng = RngStreams(seed)
        #: number of events processed, for instrumentation.  Counted at
        #: pop, before callbacks run, so a raising callback still counts.
        self.events_processed = 0
        #: recycled Timeout objects (see _dispatch)
        self._timeout_pool: list[Timeout] = []
        #: the observer every instrumented object on this engine calls
        #: (spans and metrics); None = tracing off
        self.obs: _t.Any = DEFAULTS.obs
        #: the race detector: process lifecycle, session accesses and
        #: coherence line ops, plus ``on_drain(engine)`` when the heap runs
        #: dry and ``on_run_exit(engine)`` when run() returns; None = off
        self.monitor: _t.Any = DEFAULTS.monitor
        #: called as fn(engine, when, seq, event) just before an event's
        #: callbacks run.  Mutated only in place: the dispatch loop holds
        #: the list object itself.
        self.sinks: list[_t.Callable[..., None]] = list(DEFAULTS.sinks)

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- event factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that fires *delay* nanoseconds from now.

        The one place a :class:`Timeout` is armed: it reuses one that the
        dispatch loop recycled when there is one, and a pooled instance is
        indistinguishable from a fresh one (all state is set here).
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        pool = self._timeout_pool
        t = pool.pop() if pool else Timeout.__new__(Timeout)
        t.engine = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, t))
        return t

    def process(self, generator: _t.Generator, name: str = "") -> Process:
        """Spawn a process from a generator; returns the process (an event
        that succeeds with the generator's return value)."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Event that fires when every one of *events* has fired."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay}ns in the past")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    # -- running -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        This is the readable reference implementation of one dispatch;
        ``run()``'s loop has identical semantics.
        """
        if not self._heap:
            raise DeadlockError("step() called with an empty event heap")
        when, seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        for sink in self.sinks:
            sink(self, when, seq, event)
        callbacks = event.callbacks
        event.callbacks = None  # marks the event processed
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event that nobody handled: crash the simulation so
            # errors never pass silently.
            raise event.value

    # -- the dispatch loop ---------------------------------------------------

    def _dispatch(self, stop: list | None, deadline: float | None) -> bool:
        """Run events until the queue is dry (True), or until the *stop*
        list fills or the next event lies past *deadline* (False).

        *stop* is filled by an event callback; *deadline* is an absolute
        time or None.
        """
        heap = self._heap
        pool = self._timeout_pool
        sinks = self.sinks
        pop = heapq.heappop
        while heap:
            if deadline is not None and heap[0][0] > deadline:
                return False
            when, seq, event = pop(heap)
            self._now = when
            self.events_processed += 1
            if sinks:
                for sink in sinks:
                    sink(self, when, seq, event)
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event.value
            # recycle: refcount 2 == our local + getrefcount's argument,
            # i.e. nobody else can ever see this object again
            if (
                type(event) is Timeout
                and len(pool) < _TIMEOUT_POOL_MAX
                and getrefcount(event) == 2
            ):
                pool.append(event)
            if stop is not None and stop:
                return False
        return True

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run until the heap is empty, a deadline, or an event.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until the clock reaches that time.
          Every event with ``when <= until`` is processed (in
          ``(when, seq)`` order), including events scheduled exactly at
          the deadline by other deadline-time events.
        * ``until=<Event>`` — run until that event is processed and
          return its value (raising if it failed).
        """
        monitor = self.monitor
        if until is None:
            self._dispatch(None, None)
            if monitor is not None:
                monitor.on_drain(self)
                monitor.on_run_exit(self)
            return None

        if isinstance(until, Event):
            target = until
            if target.processed:
                if not target.ok:
                    raise target.value
                return target.value
            done: list[bool] = []
            assert target.callbacks is not None
            target.callbacks.append(lambda _ev: done.append(True))
            dry = self._dispatch(done, None)
            if dry and not done:
                if monitor is not None:
                    monitor.on_drain(self)
                raise DeadlockError(
                    f"event heap ran dry before {target!r} was triggered"
                )
            if monitor is not None:
                monitor.on_run_exit(self)
            if not target.ok:
                target.defuse()
                raise target.value
            return target.value

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"cannot run until {deadline} < now {self._now}")
        self._dispatch(None, deadline)
        self._now = deadline
        if monitor is not None:
            monitor.on_run_exit(self)
        return None
