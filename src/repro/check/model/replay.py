"""Counterexample replay: abstract traces driven through the real DES.

Every spec's :meth:`~repro.check.model.spec.ModelSpec.replay` builds a
fresh simulated world (deployment, runtime, the production subsystem
under test) and executes the counterexample's actions one by one,
cross-checking the *abstract* post-state the model predicts against the
*concrete* state the implementation reaches.  A step whose concrete
state disagrees with the model is recorded as a divergence — which is
exactly the point of replaying mutant counterexamples: the (correct)
implementation refuses to follow the modeled bug.

:func:`checked_replay` additionally runs the whole replay twice under
the PR-1 :class:`~repro.check.determinism.DeterminismHarness`, diffing
the two engines' event streams byte for byte, so every counterexample
ships with a proof that its repro is deterministic.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.check.determinism import DeterminismHarness

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.model.spec import Action, ModelSpec


@dataclasses.dataclass(frozen=True)
class ReplayStep:
    """One action of a trace executed against the implementation."""

    action: str  # rendered action
    ok: bool  # concrete state matched the abstract prediction
    detail: str = ""  # mismatch description when not ok

    def render(self) -> str:
        marker = "ok" if self.ok else "DIVERGED"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.action:<28} {marker}{suffix}"


@dataclasses.dataclass
class ReplayResult:
    """Outcome of driving one trace through the real implementation."""

    spec_name: str
    steps: list[ReplayStep]
    #: None until :func:`checked_replay` has diffed two runs
    deterministic: bool | None = None
    #: engine events dispatched during one replay run
    events: int = 0

    @property
    def diverged(self) -> bool:
        return any(not step.ok for step in self.steps)

    def render(self) -> str:
        if self.diverged:
            verdict = (
                "implementation DIVERGED from the model (it does not "
                "exhibit the modeled behavior)"
            )
        else:
            verdict = "implementation follows the model step for step"
        lines = [f"replay[{self.spec_name}]: {len(self.steps)} step(s) — {verdict}"]
        lines.extend(f"  {step.render()}" for step in self.steps)
        if self.deterministic is not None:
            det = "byte-identical" if self.deterministic else "NONDETERMINISTIC"
            lines.append(f"  two same-seed replays: {det} ({self.events} events)")
        return "\n".join(lines)

    def to_json(self) -> dict[str, _t.Any]:
        return {
            "spec": self.spec_name,
            "steps": [
                {"action": s.action, "ok": s.ok, "detail": s.detail}
                for s in self.steps
            ],
            "diverged": self.diverged,
            "deterministic": self.deterministic,
            "events": self.events,
        }


class ReplayRecorder:
    """Collects per-step cross-check outcomes for the replay adapters."""

    def __init__(self, spec_name: str) -> None:
        self.spec_name = spec_name
        self.steps: list[ReplayStep] = []
        self._mismatches: list[str] = []

    def expect(self, condition: bool, detail: str) -> None:
        """Record one cross-check of the pending step."""
        if not condition:
            self._mismatches.append(detail)

    def mismatch(self, detail: str) -> None:
        self._mismatches.append(detail)

    def commit(self, action: "Action") -> None:
        """Close out one replayed action with its accumulated checks."""
        self.steps.append(
            ReplayStep(
                action=action.render(),
                ok=not self._mismatches,
                detail="; ".join(self._mismatches),
            )
        )
        self._mismatches = []

    def result(self) -> ReplayResult:
        return ReplayResult(spec_name=self.spec_name, steps=self.steps)


def checked_replay(spec: "ModelSpec", trace: _t.Sequence["Action"]) -> ReplayResult:
    """Replay *trace* twice under the determinism harness.

    Returns the second run's :class:`ReplayResult` with
    ``deterministic`` set from the byte-for-byte event-stream diff —
    the same machinery ``repro check --determinism`` uses, so a model
    counterexample is a first-class deterministic repro.
    """
    results: list[ReplayResult] = []

    def scenario() -> None:
        results.append(spec.replay(trace))

    name = f"model.{spec.name}"
    harness = DeterminismHarness(scenarios={name: scenario})
    report = harness.run(name)
    result = results[-1]
    result.deterministic = report.identical
    result.events = report.events_first
    return result
