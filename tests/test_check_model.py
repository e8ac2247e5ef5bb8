"""The explicit-state model checker: explorer semantics on a toy spec,
the four protocol specs clean at smoke scope, counterexample replay
through the real DES, the mutation harness, and the runner wiring
(``repro check --model``, exit code 4).
"""

from __future__ import annotations

import io
import json
import pathlib
import typing as _t

import pytest

from repro.check.model import (
    SCOPES,
    SPECS,
    Action,
    ExplorationResult,
    Explorer,
    Invariant,
    ModelSpec,
    build_spec,
    minimize_trace,
)
from repro.check.model.mutants import MUTANTS, run_mutants
from repro.check.runner import EXIT_CLEAN, EXIT_MODEL, EXIT_USAGE, run_check
from repro.errors import ModelCheckError

# --- a toy spec exercising the explorer in isolation ------------------------------


class CounterSpec(ModelSpec):
    """inc/dec on a bounded counter; 'bound' is violated at *bad*."""

    name = "counter"
    description = "toy counter for explorer tests"

    def __init__(self, bad: int = 3, allow_dec: bool = True) -> None:
        self.bad = bad
        self.allow_dec = allow_dec

    def initial_states(self) -> _t.Sequence[int]:
        return (0,)

    def enabled(self, state: int) -> _t.Sequence[Action]:
        actions = [Action("inc")]
        if self.allow_dec and state > 0:
            actions.append(Action("dec"))
        return actions

    def apply(self, state: int, action: Action) -> int:
        return state + 1 if action.kind == "inc" else state - 1

    def invariants(self) -> _t.Sequence[Invariant]:
        return (
            Invariant(
                "bound",
                lambda s: f"counter reached {s}" if s >= self.bad else None,
            ),
        )

    def replay(self, trace):  # pragma: no cover - never replayed
        raise NotImplementedError


def test_explorer_finds_shortest_counterexample():
    result = Explorer(CounterSpec(bad=3)).run()
    assert not result.ok
    violation = result.violations[0]
    assert violation.kind == "invariant"
    assert violation.property == "bound"
    # BFS guarantees the minimal trace: three increments, no detours
    assert violation.trace == (Action("inc"),) * 3


def test_explorer_respects_depth_bound():
    result = Explorer(CounterSpec(bad=3), max_depth=2).run()
    assert result.ok  # the violation lies at depth 3
    assert not result.complete  # and the bound must be reported as such
    assert result.depth == 2


def test_explorer_state_budget_marks_incomplete():
    result = Explorer(CounterSpec(bad=10**9), max_states=50).run()
    assert result.ok
    assert not result.complete
    assert result.states == 50


def test_minimize_trace_drops_detours():
    spec = CounterSpec(bad=3)
    # a roundabout witness: up-down noise before the real climb
    trace = tuple(Action(k) for k in ("inc", "inc", "dec", "dec", "inc", "inc", "inc"))
    minimized = minimize_trace(
        spec,
        0,
        trace,
        lambda state: state is not None and state >= 3,
    )
    assert minimized == (Action("inc"),) * 3


class StuckSpec(CounterSpec):
    """Terminal at 1, and 1 is not a legal stopping point: a deadlock."""

    name = "stuck"

    def __init__(self) -> None:
        super().__init__(bad=10, allow_dec=False)

    def enabled(self, state: int) -> _t.Sequence[Action]:
        return () if state >= 1 else (Action("inc"),)

    def is_final(self, state: int) -> bool:
        return False


def test_explorer_reports_deadlock_on_non_final_terminal_state():
    result = Explorer(StuckSpec()).run()
    assert not result.ok
    assert result.violations[0].kind == "deadlock"


# --- the registry and the four protocol specs -------------------------------------


def test_registry_names_scopes_and_build_spec():
    assert set(SPECS) == {"coherence", "leases", "admission", "recovery"}
    assert SCOPES == ("smoke", "deep")
    for name in SPECS:
        spec = build_spec(name)
        assert spec.name == name
        assert spec.description
    with pytest.raises(ModelCheckError):
        build_spec("nope")
    with pytest.raises(ModelCheckError):
        build_spec("coherence", scope="galactic")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_holds_at_smoke_scope(name: str):
    result = Explorer(build_spec(name, "smoke")).run()
    assert isinstance(result, ExplorationResult)
    assert result.ok, "\n".join(v.render() for v in result.violations)
    assert result.complete  # smoke scope must be exhaustively explorable
    assert result.states > 1
    assert result.transitions >= result.states - 1


def test_coherence_spec_uses_por():
    with_por = Explorer(build_spec("coherence", "smoke")).run()
    without = Explorer(build_spec("coherence", "smoke"), por=False).run()
    assert with_por.por_used and not without.por_used
    # POR prunes transitions but must preserve the reachable state set
    assert with_por.states == without.states
    assert with_por.transitions <= without.transitions


@pytest.mark.parametrize("name", ["leases", "admission", "recovery"])
def test_specs_without_independent_actions_claim_no_por(name: str):
    result = Explorer(build_spec(name, "smoke")).run()
    assert not result.por_used
    assert ", sleep-set POR" not in result.render()


def test_determinism_same_exploration_twice():
    a = Explorer(build_spec("admission", "smoke")).run()
    b = Explorer(build_spec("admission", "smoke")).run()
    assert (a.states, a.transitions, a.depth) == (b.states, b.transitions, b.depth)


# --- mutation harness: seeded bugs die, replays diverge ---------------------------


def test_mutant_registry_covers_every_spec():
    targets = {mutant.target for mutant in MUTANTS}
    assert targets == set(SPECS)
    assert len(MUTANTS) >= 10
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


def test_mutation_harness_catches_seeded_bugs():
    reports = run_mutants(scope="smoke")
    caught = [r for r in reports if r.caught]
    # acceptance bar: >= 8/10 seeded bugs must die; this suite holds
    # itself to all of them
    assert len(caught) == len(reports), [r.name for r in reports if not r.caught]
    for report in caught:
        assert report.trace_len >= 1
        assert report.violation_kind in {"invariant", "deadlock", "final"}
        # the counterexample replays through the real implementation and
        # *diverges* there — proving the bug is the mutant's, not the
        # model's — deterministically across two runs
        assert report.replay_diverged, report.name
        assert report.replay_deterministic, report.name


def test_mutant_reports_render_and_serialize():
    reports = run_mutants(scope="smoke", replay=False)
    for report in reports:
        assert report.name in report.render()
        payload = report.to_json()
        assert payload["caught"] is True
        assert payload["target"] in SPECS


# --- replay of a legal trace through the real DES ---------------------------------


def test_legal_coherence_trace_replays_without_divergence():
    spec = build_spec("coherence", "smoke")
    state = spec.initial_states()[0]
    trace = []
    for _ in range(4):
        action = spec.enabled(state)[0]
        trace.append(action)
        state = spec.apply(state, action)
    replay = spec.replay(trace)
    assert not replay.diverged
    assert len(replay.steps) == len(trace)
    assert all(step.ok for step in replay.steps)


def test_legal_lease_trace_expires_every_due_lease_at_its_tick():
    """Two leases granted at one instant fall due together: the replay
    frees both at the second tick, as the model does, and a release of
    an expired lease is refused by the real table as the model predicts."""
    spec = build_spec("leases", "smoke")
    trace = [
        Action("grant", (0,)),
        Action("grant", (1,)),
        Action("tick"),
        Action("tick"),
        Action("release", (0, 1)),
    ]
    state = spec.initial_states()[0]
    for action in trace:
        assert action in spec.enabled(state)
        state = spec.apply(state, action)
    assert state.leases == ()
    replay = spec.replay(trace)
    assert not replay.diverged
    assert len(replay.steps) == len(trace)


# --- runner + CLI wiring ----------------------------------------------------------


@pytest.fixture
def clean_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    tree = tmp_path / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "good.py").write_text("def f():\n    return 1\n")
    return tmp_path


def test_run_check_model_single_spec_clean(clean_tree):
    stream = io.StringIO()
    code = run_check([clean_tree], model=["recovery"], stream=stream)
    assert code == EXIT_CLEAN
    out = stream.getvalue()
    assert "recovery" in out
    assert "explored" in out


def test_run_check_model_unknown_spec_is_usage_error(clean_tree, capsys):
    code = run_check([clean_tree], model=["nope"], stream=io.StringIO())
    assert code == EXIT_USAGE
    assert "unknown model spec" in capsys.readouterr().err


def test_run_check_model_bad_scope_and_depth_are_usage_errors(clean_tree):
    assert (
        run_check([clean_tree], model=["recovery"], scope="huge", stream=io.StringIO())
        == EXIT_USAGE
    )
    assert (
        run_check([clean_tree], model=["recovery"], depth=0, stream=io.StringIO())
        == EXIT_USAGE
    )


def test_run_check_mutants_without_model_skips_protocol_mutants(clean_tree):
    # --mutants alone self-tests the linter; the protocol mutants need --model
    stream = io.StringIO()
    code = run_check([clean_tree], mutants=True, stream=stream)
    assert code == EXIT_CLEAN
    out = stream.getvalue()
    assert "lint mutation harness:" in out
    assert "seeded bug(s) caught" not in out


def test_run_check_model_violation_exits_4_with_replay(clean_tree, monkeypatch):
    # a seeded coherence bug standing in for a real protocol regression
    from repro.check.model.mutants import StoreSkipsInvalidation

    monkeypatch.setitem(SPECS, "coherence", lambda scope: StoreSkipsInvalidation(2, 2, 3))
    stream = io.StringIO()
    code = run_check([clean_tree], model=["coherence"], stream=stream)
    assert code == EXIT_MODEL
    out = stream.getvalue()
    assert "violation" in out
    assert "replay" in out


def test_run_check_model_json_payload(clean_tree):
    stream = io.StringIO()
    code = run_check([clean_tree], model=["recovery"], fmt="json", stream=stream)
    assert code == EXIT_CLEAN
    payload = json.loads(stream.getvalue())
    assert payload["exit_code"] == 0
    (record,) = payload["model"]
    assert record["spec"] == "recovery"
    assert record["scope"] == "smoke"
    assert record["complete"] is True
    assert record["violations"] == []
    assert record["states"] > 1
    assert record["elapsed_s"] >= 0


def test_run_check_model_github_annotations_on_violation(clean_tree, monkeypatch):
    from repro.check.model.mutants import StoreSkipsInvalidation

    monkeypatch.setitem(SPECS, "coherence", lambda scope: StoreSkipsInvalidation(2, 2, 3))
    stream = io.StringIO()
    code = run_check([clean_tree], model=["coherence"], fmt="github", stream=stream)
    assert code == EXIT_MODEL
    assert "::error title=model" in stream.getvalue()


def test_run_check_depth_bound_reports_incomplete(clean_tree):
    stream = io.StringIO()
    code = run_check([clean_tree], model=["admission"], depth=2, fmt="json", stream=stream)
    assert code == EXIT_CLEAN  # bounded exploration that finds nothing is clean
    (record,) = json.loads(stream.getvalue())["model"]
    assert record["complete"] is False


def test_cli_accepts_model_flags(clean_tree, capsys):
    from repro.cli import main

    code = main(
        ["check", str(clean_tree), "--model", "recovery", "--scope", "smoke"]
    )
    assert code == EXIT_CLEAN
    assert "recovery" in capsys.readouterr().out
