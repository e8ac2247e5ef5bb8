"""Explicit-state exploration: BFS/DFS, sleep sets, invariants, deadlocks.

The explorer enumerates every state a :class:`~repro.check.model.spec.
ModelSpec` can reach inside the configured scope, checking invariants
on each new state and flagging terminal states that are not legal
stopping points as deadlocks.

Reduction: *sleep sets* (Godefroid).  A sleep set prunes transitions
whose interleaving is provably redundant with an already-explored
independent action; every reachable **state** is still visited, so
invariant and deadlock checking stay exact — the reduction only saves
transitions.

Counterexamples: BFS parent links give a shortest trace to any
violating state; :func:`minimize_trace` then greedily deletes actions
that are not needed to re-derive the violation, so the replayed DES
repro is as small as the protocol allows.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from repro.check.model.spec import Action, Invariant, ModelSpec, State
from repro.errors import ModelCheckError


@dataclasses.dataclass(frozen=True)
class ModelViolation:
    """One property violation with its (minimized) counterexample."""

    kind: str  # "invariant" | "deadlock" | "final"
    property: str
    message: str
    trace: tuple[Action, ...]
    state: str  # rendered violating state

    def render(self) -> str:
        lines = [f"{self.kind} violation: {self.property}", f"  {self.message}"]
        if self.trace:
            lines.append(f"  trace ({len(self.trace)} action(s)):")
            lines.extend(f"    {i + 1}. {a.render()}" for i, a in enumerate(self.trace))
        else:
            lines.append("  trace: <initial state>")
        lines.append(f"  state: {self.state}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, _t.Any]:
        return {
            "kind": self.kind,
            "property": self.property,
            "message": self.message,
            "trace": [a.render() for a in self.trace],
            "state": self.state,
        }


@dataclasses.dataclass
class ExplorationResult:
    """Outcome of exhaustively exploring one spec."""

    spec_name: str
    states: int
    transitions: int
    depth: int
    complete: bool  # False when a state or depth cap truncated the search
    por_used: bool
    violations: list[ModelViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        scope = "exhaustively explored" if self.complete else "explored (TRUNCATED)"
        summary = (
            f"{self.spec_name}: {scope} {self.states} state(s) / "
            f"{self.transitions} transition(s), depth {self.depth}"
            f"{', sleep-set POR' if self.por_used else ''}"
        )
        if self.ok:
            return f"{summary} — invariants + deadlock hold"
        parts = [f"{summary} — {len(self.violations)} violation(s)"]
        parts.extend(v.render() for v in self.violations)
        return "\n".join(parts)


class Explorer:
    """Explores one spec's state space; see the module docstring."""

    def __init__(
        self,
        spec: ModelSpec,
        max_depth: int | None = None,
        max_states: int = 200_000,
        por: bool = True,
        strategy: str = "bfs",
    ) -> None:
        if strategy not in ("bfs", "dfs"):
            raise ModelCheckError(f"unknown exploration strategy {strategy!r}")
        if max_states < 1:
            raise ModelCheckError(f"max_states must be >= 1, got {max_states}")
        self.spec = spec
        self.max_depth = max_depth
        self.max_states = max_states
        self.strategy = strategy
        # sleep sets only prune with some independence declared
        self.por = por and type(spec).independent is not ModelSpec.independent
        self._ids: dict[State, int] = {}
        self._states: list[State] = []
        self._depth: list[int] = []
        self._parent: list[tuple[int, Action] | None] = []
        self._sleep: list[frozenset[Action]] = []
        self._explored: list[set[Action]] = []

    # -- state bookkeeping ---------------------------------------------------

    def _intern(self, state: State, depth: int, parent: tuple[int, Action] | None) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
            self._depth.append(depth)
            self._parent.append(parent)
            self._sleep.append(frozenset())
            self._explored.append(set())
        return sid

    def _trace_to(self, sid: int) -> tuple[Action, ...]:
        actions: list[Action] = []
        cursor: int | None = sid
        while cursor is not None:
            link = self._parent[cursor]
            if link is None:
                cursor = None
            else:
                cursor, action = link
                actions.append(action)
        actions.reverse()
        return tuple(actions)

    # -- the search ----------------------------------------------------------

    def run(self) -> ExplorationResult:
        spec = self.spec
        invariants = tuple(spec.invariants())
        transitions = 0
        complete = True

        frontier: collections.deque[int] = collections.deque()
        for initial in spec.initial_states():
            sid = self._intern(initial, 0, None)
            bad = self._check_invariants(invariants, sid)
            if bad is not None:
                return self._result(transitions, True, [bad])
            frontier.append(sid)

        while frontier:
            sid = frontier.popleft() if self.strategy == "bfs" else frontier.pop()
            state = self._states[sid]
            depth = self._depth[sid]
            enabled = list(spec.enabled(state))
            if not enabled:
                terminal_bad = self._check_terminal(sid)
                if terminal_bad is not None:
                    return self._result(transitions, complete, [terminal_bad])
                continue
            if self.max_depth is not None and depth >= self.max_depth:
                complete = False
                continue
            sleep = self._sleep[sid]
            done_before: list[Action] = []
            for action in enabled:
                if action in self._explored[sid]:
                    done_before.append(action)
                    continue
                if self.por and action in sleep:
                    continue
                self._explored[sid].add(action)
                successor = spec.apply(state, action)
                transitions += 1
                child_sleep = frozenset(
                    other
                    for other in (set(sleep) | set(done_before))
                    if spec.independent(action, other)
                )
                known = successor in self._ids
                tid = self._intern(successor, depth + 1, (sid, action))
                if not known:
                    bad = self._check_invariants(invariants, tid)
                    if bad is not None:
                        return self._result(transitions, complete, [bad])
                    if len(self._states) >= self.max_states:
                        return self._result(transitions, False, [])
                    self._sleep[tid] = child_sleep
                    frontier.append(tid)
                elif self.por:
                    # revisit with a smaller sleep set: wake the pruned
                    # actions so no state's outgoing transitions are lost
                    merged = self._sleep[tid] & child_sleep
                    if merged != self._sleep[tid]:
                        self._sleep[tid] = merged
                        frontier.append(tid)
                done_before.append(action)

        return self._result(transitions, complete, [])

    def _result(
        self, transitions: int, complete: bool, violations: list[ModelViolation]
    ) -> ExplorationResult:
        return ExplorationResult(
            spec_name=self.spec.name,
            states=len(self._states),
            transitions=transitions,
            depth=max(self._depth, default=0),
            complete=complete,
            por_used=self.por,
            violations=violations,
        )

    # -- property checks -----------------------------------------------------

    def _check_invariants(
        self, invariants: tuple[Invariant, ...], sid: int
    ) -> ModelViolation | None:
        state = self._states[sid]
        for invariant in invariants:
            detail = invariant.check(state)
            if detail is not None:
                trace = minimize_trace(
                    self.spec,
                    self._initial_of(sid),
                    self._trace_to(sid),
                    lambda s, inv=invariant: inv.check(s) is not None,  # type: ignore[misc]
                )
                return ModelViolation(
                    kind="invariant",
                    property=invariant.name,
                    message=detail,
                    trace=trace,
                    state=self.spec.describe_state(state),
                )
        return None

    def _check_terminal(self, sid: int) -> ModelViolation | None:
        state = self._states[sid]
        if not self.spec.is_final(state):
            trace = minimize_trace(
                self.spec,
                self._initial_of(sid),
                self._trace_to(sid),
                lambda s: not list(self.spec.enabled(s)) and not self.spec.is_final(s),
            )
            return ModelViolation(
                kind="deadlock",
                property="no-deadlock",
                message="terminal state is not a legal stopping point",
                trace=trace,
                state=self.spec.describe_state(state),
            )
        for invariant in self.spec.final_invariants():
            detail = invariant.check(state)
            if detail is not None:
                trace = minimize_trace(
                    self.spec,
                    self._initial_of(sid),
                    self._trace_to(sid),
                    lambda s, inv=invariant: (  # type: ignore[misc]
                        not list(self.spec.enabled(s)) and inv.check(s) is not None
                    ),
                )
                return ModelViolation(
                    kind="final",
                    property=invariant.name,
                    message=detail,
                    trace=trace,
                    state=self.spec.describe_state(state),
                )
        return None

    def _initial_of(self, sid: int) -> State:
        cursor = sid
        while self._parent[cursor] is not None:
            link = self._parent[cursor]
            assert link is not None
            cursor = link[0]
        return self._states[cursor]


def minimize_trace(
    spec: ModelSpec,
    initial: State,
    trace: _t.Sequence[Action],
    still_violates: _t.Callable[[State], bool],
) -> tuple[Action, ...]:
    """Greedily delete actions a counterexample does not need.

    A candidate survives when every remaining action is still enabled
    in sequence from *initial* and the final state still satisfies
    *still_violates*.  BFS already yields a shortest trace; this pass
    removes commuting noise (another tenant's unrelated ops) so the DES
    replay is as focused as the protocol allows.
    """

    def final_state(candidate: _t.Sequence[Action]) -> State | None:
        state = initial
        for action in candidate:
            if action not in spec.enabled(state):
                return None
            state = spec.apply(state, action)
        return state

    current = list(trace)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            state = final_state(candidate)
            if state is not None and still_violates(state):
                current = candidate
                shrunk = True
                break
    return tuple(current)
