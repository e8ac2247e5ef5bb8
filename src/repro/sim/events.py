"""One-shot events for the simulation kernel.

An :class:`Event` has three states: *pending* (created, not triggered),
*triggered* (scheduled on the engine's heap with a value or an error) and
*processed* (its callbacks have run).  Processes wait on events by
yielding them; the composite :class:`AllOf` waits on a group.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: Sentinel distinguishing "not triggered yet" from a ``None`` value.
PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    Callbacks are callables taking the event itself; they run when the
    engine pops the event off its heap.  Events may carry a value
    (:meth:`succeed`) or an exception (:meth:`fail`); a failed event
    re-raises inside every process waiting on it.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused", "_name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok = True
        self._defused = False
        self._name = name

    @property
    def name(self) -> str:
        """The event's display name.

        Internally the name may be held as a ``(prefix, suffix)`` tuple
        (see :func:`lazy_event`); the ``f"{prefix}:{suffix}"`` string is
        rendered — and cached — only when somebody actually reads it, so
        uninstrumented runs never pay for name formatting.
        """
        n = self._name
        if type(n) is tuple:
            n = self._name = f"{n[0]}:{n[1]}"
        return n

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or error."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The value passed to :meth:`succeed` (or the exception from :meth:`fail`)."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with *value* at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        self.engine._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an error; waiters see the exception raised."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._ok = False
        self.engine._schedule(self, delay=0.0)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not crash
        when nobody waits on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = f" {self.name}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


def lazy_event(engine: "Engine", prefix: str, suffix: _t.Any) -> Event:
    """A pending :class:`Event` whose ``"{prefix}:{suffix}"`` name is
    rendered lazily — the kernel's internal control events (process
    init/relay, fluid completions) go through here so the
    per-event f-string only costs when a trace sink reads it."""
    ev = Event.__new__(Event)
    ev.engine = engine
    ev.callbacks = []
    ev._value = PENDING
    ev._ok = True
    ev._defused = False
    ev._name = (prefix, suffix)
    return ev


class Timeout(Event):
    """An event that fires after a fixed delay.

    Armed (fresh or recycled) only by :meth:`Engine.timeout
    <repro.sim.engine.Engine.timeout>`.
    """

    __slots__ = ("delay",)

    @property
    def name(self) -> str:
        return f"timeout({self.delay})"


class AllOf(Event):
    """Succeeds when all of its events have succeeded (or fails with the
    first failure)."""

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
            if ev.processed:
                self._check(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({ev: ev.value for ev in self.events if ev.processed and ev.ok})
