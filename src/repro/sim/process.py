"""Generator-based simulation processes.

A process wraps a generator.  The generator ``yield``s events; the
process resumes when the yielded event fires, receiving the event's
value at the yield point (or the event's exception raised there).  The
process object is itself an :class:`~repro.sim.events.Event` that
succeeds with the generator's return value, so processes can wait on
each other.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError
from repro.sim.events import Event, lazy_event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Process(Event):
    """A running generator on the simulation timeline."""

    __slots__ = ("_generator", "_waiting_on", "_obs_scope")

    #: installed by repro.check.races.RaceSanitizer to observe process
    #: lifecycle (fork/join/suspend edges for vector clocks and the
    #: wait-for graph).  None = hooks disabled; the hot path then pays
    #: only one class-attribute load + ``is None`` test per resume.
    _monitor: _t.ClassVar[_t.Any] = None

    #: installed by repro.obs.Observability: the same lifecycle protocol,
    #: used to open/close process spans and switch the active span scope
    #: on every resume/suspend.  None = tracing disabled.
    _obs: _t.ClassVar[_t.Any] = None

    def __init__(self, engine: "Engine", generator: _t.Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you call the function with () and forget a yield inside?"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        #: stack of spans opened inside this process (managed by repro.obs)
        self._obs_scope: list | None = None
        monitor = Process._monitor
        if monitor is not None:
            monitor.on_create(self)
        obs = Process._obs
        if obs is not None:
            obs.on_create(self)
        # Kick off the process via an immediately-scheduled init event.
        init = lazy_event(engine, "init", self._name)
        init.callbacks.append(self._resume)
        init._value = None
        engine._schedule(init, delay=0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internals ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        monitor = Process._monitor
        if monitor is not None:
            monitor.on_resume(self, event)
        obs = Process._obs
        if obs is not None:
            obs.on_resume(self, event)
        self._waiting_on = None
        generator = self._generator
        ok, value = event._ok, event._value
        if not ok:
            event.defuse()
        while True:
            try:
                target = generator.send(value) if ok else generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                break
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                    raise
                self.fail(exc)
                break
            if not isinstance(target, Event):
                # A bad yield: throw the error into the body and handle
                # whatever it yields next like any other yield.
                ok = False
                value = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
                continue
            callbacks = target.callbacks
            if callbacks is None:
                # The event already fired: resume on the next tick with its value.
                relay = lazy_event(self.engine, "relay", self._name)
                relay._value = target._value
                relay._ok = target._ok
                if not target._ok:
                    target.defuse()
                    relay._defused = True
                relay.callbacks.append(self._resume)
                self.engine._schedule(relay, delay=0.0)
            else:
                self._waiting_on = target
                callbacks.append(self._resume)
            if monitor is not None:
                monitor.on_suspend(self, target)
            if obs is not None:
                obs.on_suspend(self, target)
            return
        if monitor is not None:
            monitor.on_finish(self)
        if obs is not None:
            obs.on_finish(self)
