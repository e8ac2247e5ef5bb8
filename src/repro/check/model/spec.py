"""The ``ModelSpec`` abstraction: a protocol state machine the explorer
can enumerate.

A spec is a TLA-lite description of one of the pool's protocols: a set
of initial states, an ``enabled`` relation naming the actions a state
admits, and a total ``apply`` function producing the successor state.
States must be *canonical and hashable* (tuples of tuples, frozensets
rendered as sorted tuples) so the explorer can deduplicate them; two
states that compare equal are the same protocol configuration.

Correctness properties come in two flavors:

* :class:`Invariant` — a predicate over every reachable state (SWMR,
  quota conservation, no lease past its deadline ...).
* *final* invariants — predicates over terminal states only (no waiter
  left behind once all activity has quiesced).

Every spec also carries a :meth:`ModelSpec.replay` adapter that drives
the *real* implementation through a counterexample trace inside the
DES, cross-checking abstract against concrete state after every step —
the seam that keeps model and implementation from drifting silently.
"""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.model.replay import ReplayResult

#: canonical hashable protocol state
State = _t.Hashable


@dataclasses.dataclass(frozen=True)
class Action:
    """One named transition of a protocol state machine.

    ``kind`` is the action family (``store``, ``tick``, ``crash`` ...)
    used by the independence relation;
    ``payload`` carries the arguments (host, line, tenant ...) and makes
    the action unique within a state's enabled set.
    """

    kind: str
    payload: tuple[_t.Any, ...] = ()

    def render(self) -> str:
        if not self.payload:
            return self.kind
        args = ", ".join(str(p) for p in self.payload)
        return f"{self.kind}({args})"


@dataclasses.dataclass(frozen=True)
class Invariant:
    """A safety property: ``check`` returns None when *state* is legal,
    or a human-readable description of the violation."""

    name: str
    check: _t.Callable[[State], str | None]


class ModelSpec(abc.ABC):
    """One protocol state machine, explorable and replayable."""

    #: registry key, also the CLI name (``repro check --model <name>``)
    name: _t.ClassVar[str] = ""
    #: one-line description rendered by the runner
    description: _t.ClassVar[str] = ""

    @abc.abstractmethod
    def initial_states(self) -> _t.Sequence[State]:
        """All initial configurations (usually one)."""

    @abc.abstractmethod
    def enabled(self, state: State) -> _t.Sequence[Action]:
        """The actions *state* admits, in deterministic order."""

    @abc.abstractmethod
    def apply(self, state: State, action: Action) -> State:
        """The successor of *state* under an enabled *action*."""

    @abc.abstractmethod
    def invariants(self) -> _t.Sequence[Invariant]:
        """Safety properties checked on every reachable state."""

    def final_invariants(self) -> _t.Sequence[Invariant]:
        """Properties of terminal states (no action enabled)."""
        return ()

    def is_final(self, state: State) -> bool:
        """Whether a terminal *state* is a legal stopping point.

        A terminal state that is not final is reported as a deadlock.
        The default accepts every terminal state; specs whose protocols
        must always be able to make progress override this.
        """
        return True

    def independent(self, a: Action, b: Action) -> bool:
        """Whether *a* and *b* commute from every state enabling both.

        Drives the sleep-set partial-order reduction; the default (no
        independence) disables it.  Only declare independence for pairs
        that provably touch disjoint state components — a wrong answer
        here silently prunes transitions.
        """
        return False

    @abc.abstractmethod
    def replay(self, trace: _t.Sequence[Action]) -> "ReplayResult":
        """Drive the real implementation through *trace* inside the DES,
        cross-checking abstract and concrete state after every step."""

    def describe_state(self, state: State) -> str:
        """Render *state* for counterexample reports."""
        return repr(state)
