"""Structured trace recording.

Components emit ``(time, component, kind, payload)`` records through a
shared :class:`Tracer`.  Traces power the migration and coherence tests
(asserting protocol message orders) and make simulations debuggable.
Tracing is off by default; enabling categories is cheap and explicit.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One trace line."""

    time: float
    component: str
    kind: str
    payload: dict[str, _t.Any]

    def format(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
        return f"[{self.time:14.1f}ns] {self.component:<24} {self.kind:<20} {fields}"


class Tracer:
    """Collects :class:`TraceRecord` objects for enabled categories."""

    def __init__(self, enabled: _t.Iterable[str] = ()) -> None:
        self._enabled: set[str] = set(enabled)
        self.records: list[TraceRecord] = []

    def enable(self, *kinds: str) -> None:
        """Enable tracing for the given record kinds (or '*' for all)."""
        self._enabled.update(kinds)

    def disable(self, *kinds: str) -> None:
        for kind in kinds:
            self._enabled.discard(kind)

    def wants(self, kind: str) -> bool:
        return "*" in self._enabled or kind in self._enabled

    def emit(self, time: float, component: str, kind: str, **payload: _t.Any) -> None:
        """Record one trace line if *kind* is enabled.

        The keyword-argument payload dict is built by the *caller* even
        when the kind is disabled — hot paths should guard with
        :meth:`wants`.
        """
        if self.wants(kind):
            self.records.append(TraceRecord(time, component, kind, payload))

    def clear(self) -> None:
        self.records.clear()

    def dump(self) -> str:
        """Render every record, one per line."""
        return "\n".join(r.format() for r in self.records)


#: A tracer with everything disabled, for components created without one.
NULL_TRACER = Tracer()
