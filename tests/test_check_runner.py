"""CLI/runner tests: exit codes, formats, rule selection, --fix, --races,
and flow findings reported as ordinary lint findings.

The exit-code contract is part of the CI interface and must stay
stable: 0 clean, 1 findings, 2 usage error, 3 internal error, 4 model.
"""

from __future__ import annotations

import io
import json
import pathlib

import pytest

import repro.check.runner as runner_mod
from repro.check.runner import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    EXIT_USAGE,
    run_check,
    run_races,
)
from repro.cli import main
from repro.core.api import LmpSession
from repro.core.runtime import LmpRuntime
from repro.errors import DeadlockError
from repro.sim.engine import Engine
from repro.sim.resources import Mutex
from repro.units import mib

BAD_SIM_SOURCE = "hosts = {2, 1}\nfor h in hosts:\n    flush(h)\n"


@pytest.fixture
def clean_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    tree = tmp_path / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "good.py").write_text("def f():\n    return 1\n")
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    tree = tmp_path / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "bad.py").write_text(BAD_SIM_SOURCE)
    return tmp_path


# --- synthetic scenarios for the --races paths ------------------------------------


def _racy_scenario():
    from repro.topology.builder import build_logical

    dep = build_logical("link0")
    runtime = LmpRuntime(dep)
    s0 = LmpSession(runtime, server_id=0)
    s1 = LmpSession(runtime, server_id=1)
    buf = s0.alloc(mib(4), name="shared")

    def tenant(session, payload):
        yield session.write(buf, 0, payload)

    dep.engine.process(tenant(s0, b"a" * 64), name="tenant.a")
    dep.engine.process(tenant(s1, b"b" * 64), name="tenant.b")
    dep.engine.run()


def _deadlock_scenario():
    eng = Engine(seed=1)
    a, b = Mutex(eng), Mutex(eng)

    def phil(first, second):
        yield first.acquire()
        yield eng.timeout(5.0)
        yield second.acquire()

    eng.process(phil(a, b), name="x")
    eng.process(phil(b, a), name="y")
    eng.run()


def _clean_scenario():
    eng = Engine(seed=2)

    def worker():
        yield eng.timeout(1.0)

    eng.process(worker(), name="w")
    eng.run()


def _crashing_scenario():
    raise RuntimeError("scenario blew up")


# --- exit codes -------------------------------------------------------------------


def test_exit_clean(clean_tree):
    assert run_check([clean_tree], stream=io.StringIO()) == EXIT_CLEAN


def test_exit_findings_on_violation(dirty_tree):
    stream = io.StringIO()
    assert run_check([dirty_tree], stream=stream) == EXIT_FINDINGS
    assert "LMP003" in stream.getvalue()


def test_exit_usage_on_unknown_path(tmp_path):
    assert run_check([tmp_path / "nope"], stream=io.StringIO()) == EXIT_USAGE


def test_exit_usage_on_unknown_rule(clean_tree):
    code = run_check([clean_tree], select=["LMP999"], stream=io.StringIO())
    assert code == EXIT_USAGE


def test_exit_usage_on_unknown_format(clean_tree):
    code = run_check([clean_tree], fmt="yaml", stream=io.StringIO())
    assert code == EXIT_USAGE


def test_exit_usage_on_unknown_scenario(clean_tree):
    code = run_check([clean_tree], races=["nope"], stream=io.StringIO())
    assert code == EXIT_USAGE


def test_exit_internal_on_scenario_crash(clean_tree, monkeypatch):
    monkeypatch.setattr(runner_mod, "SCENARIOS", {"boom": _crashing_scenario})
    stream = io.StringIO()
    code = run_check([clean_tree], races=["boom"], stream=stream)
    assert code == EXIT_INTERNAL
    assert "scenario blew up" in stream.getvalue()


def test_exit_codes_are_distinct_and_documented():
    codes = {
        EXIT_CLEAN,
        EXIT_FINDINGS,
        EXIT_USAGE,
        EXIT_INTERNAL,
        runner_mod.EXIT_MODEL,
    }
    assert codes == {0, 1, 2, 3, 4}
    doc = runner_mod.__doc__
    for code in sorted(codes):
        assert f"``{code}``" in doc


# --- flow rules in the one lint pass ------------------------------------------------

FLOW_BAD_SOURCE = (
    "def f(alloc, n):\n"
    "    h = alloc.allocate(n)\n"
    "    alloc.free(h)\n"
    "    alloc.free(h)\n"
)


@pytest.fixture
def flow_dirty_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    tree = tmp_path / "repro" / "mem"
    tree.mkdir(parents=True)
    (tree / "bad_flow.py").write_text(FLOW_BAD_SOURCE)
    return tmp_path


def test_flow_clean_tree_exits_zero(clean_tree):
    stream = io.StringIO()
    assert run_check([clean_tree], stream=stream) == EXIT_CLEAN
    assert "1 file(s) clean" in stream.getvalue()


def test_flow_noqa_suppresses(flow_dirty_tree):
    path = flow_dirty_tree / "repro" / "mem" / "bad_flow.py"
    path.write_text(FLOW_BAD_SOURCE.replace(
        "    alloc.free(h)\n    alloc.free(h)\n",
        "    alloc.free(h)\n    alloc.free(h)  # noqa: LMP011\n",
    ))
    assert run_check([flow_dirty_tree], stream=io.StringIO()) == EXIT_CLEAN


def test_flow_select_filters_flow_rules(flow_dirty_tree):
    code = run_check([flow_dirty_tree], select=["LMP012"], stream=io.StringIO())
    assert code == EXIT_CLEAN  # LMP011 not selected
    code = run_check([flow_dirty_tree], select=["LMP011"], stream=io.StringIO())
    assert code == EXIT_FINDINGS


def test_flow_mutants_all_caught(clean_tree):
    stream = io.StringIO()
    code = run_check([clean_tree], mutants=True, stream=stream)
    assert code == EXIT_CLEAN
    out = stream.getvalue()
    assert "MISSED" not in out
    assert "/18 seeded defect(s) caught" in out
    # the retired rules' shapes die at their seeded lines
    assert "caught  release-in-try-body [LMP012] at repro/core/__mutant__.py:2" in out
    assert "caught  wall-clock-in-sim [LMP010] at repro/sim/__mutant__.py:4" in out


def test_flow_json_payload(flow_dirty_tree):
    stream = io.StringIO()
    code = run_check([flow_dirty_tree], mutants=True, fmt="json", stream=stream)
    payload = json.loads(stream.getvalue())
    assert payload["version"] == 2
    assert payload["exit_code"] == code == EXIT_FINDINGS
    (violation,) = payload["violations"]
    assert violation["rule"] == "LMP011"
    assert violation["line"] == 4
    assert violation["path"].endswith("bad_flow.py")
    assert "flow" not in payload and "flow_mutants" not in payload
    assert len(payload["lint_mutants"]) == 18
    assert all(m["caught"] for m in payload["lint_mutants"])


def test_flow_github_annotations(flow_dirty_tree):
    stream = io.StringIO()
    code = run_check([flow_dirty_tree], fmt="github", stream=stream)
    assert code == EXIT_FINDINGS
    assert "::error file=" in stream.getvalue()
    assert "title=LMP011" in stream.getvalue()


def test_cli_flow_flag_end_to_end(flow_dirty_tree, capsys):
    # flow findings need no flag: the plain CLI run reports them
    code = main(["check", str(flow_dirty_tree)])
    assert code == EXIT_FINDINGS
    assert "LMP011" in capsys.readouterr().out


# --- --fix ------------------------------------------------------------------------


def test_fix_rewrites_tmp_tree(dirty_tree):
    stream = io.StringIO()
    code = run_check([dirty_tree], fix=True, stream=stream)
    assert code == EXIT_CLEAN  # fixed before the lint pass
    assert "applied 1 autofix(es)" in stream.getvalue()
    fixed = (dirty_tree / "repro" / "sim" / "bad.py").read_text()
    assert "for h in sorted(hosts):" in fixed
    # second run: nothing left to fix, still clean
    stream = io.StringIO()
    assert run_check([dirty_tree], fix=True, stream=stream) == EXIT_CLEAN
    assert "applied 0 autofix(es)" in stream.getvalue()


# --- --select ---------------------------------------------------------------------


def test_select_limits_rules(dirty_tree):
    code = run_check([dirty_tree], select=["LMP002"], stream=io.StringIO())
    assert code == EXIT_CLEAN  # LMP003 not selected
    code = run_check([dirty_tree], select=["LMP003"], stream=io.StringIO())
    assert code == EXIT_FINDINGS


# --- --format json ----------------------------------------------------------------


def test_json_format_machine_readable(dirty_tree):
    stream = io.StringIO()
    code = run_check([dirty_tree], fmt="json", stream=stream)
    payload = json.loads(stream.getvalue())
    assert payload["exit_code"] == code == EXIT_FINDINGS
    assert payload["files_checked"] == 1
    (violation,) = payload["violations"]
    assert violation["rule"] == "LMP003"
    assert violation["line"] == 2
    assert violation["autofixable"] is True
    assert violation["path"].endswith("bad.py")


def test_json_format_includes_race_results(clean_tree, monkeypatch):
    monkeypatch.setattr(
        runner_mod,
        "SCENARIOS",
        {"racy": _racy_scenario, "quiet": _clean_scenario},
    )
    stream = io.StringIO()
    code = run_check([clean_tree], races=["all"], fmt="json", stream=stream)
    assert code == EXIT_FINDINGS
    payload = json.loads(stream.getvalue())
    by_name = {entry["scenario"]: entry for entry in payload["races"]}
    assert by_name["quiet"]["races"] == []
    racy = by_name["racy"]
    assert racy["races"][0]["kind"] == "write-write"
    assert racy["races"][0]["earlier"]["clock"]  # evidence serialized
    assert racy["deadlock"] is None
    # the internal detector handle must not leak into the JSON
    assert not any(key.startswith("_") for key in racy)


def test_json_format_reports_deadlock(clean_tree, monkeypatch):
    monkeypatch.setattr(runner_mod, "SCENARIOS", {"abba": _deadlock_scenario})
    stream = io.StringIO()
    code = run_check([clean_tree], races=["abba"], fmt="json", stream=stream)
    assert code == EXIT_FINDINGS
    payload = json.loads(stream.getvalue())
    assert "wait-for cycle" in payload["races"][0]["deadlock"]


# --- --format github --------------------------------------------------------------


def test_github_format_annotations(dirty_tree):
    stream = io.StringIO()
    code = run_check([dirty_tree], fmt="github", stream=stream)
    assert code == EXIT_FINDINGS
    out = stream.getvalue()
    assert "::error file=" in out
    assert "line=2" in out and "title=LMP003" in out


def test_github_format_race_annotations(clean_tree, monkeypatch):
    monkeypatch.setattr(runner_mod, "SCENARIOS", {"racy": _racy_scenario})
    stream = io.StringIO()
    run_check([clean_tree], races=["racy"], fmt="github", stream=stream)
    assert "::error title=data race (racy)::" in stream.getvalue()


# --- --races against the real scenario registry -----------------------------------


def test_run_races_cluster_scenario_is_clean():
    (result,) = run_races(["cluster"])
    assert result["error"] is None and result["deadlock"] is None
    assert result["races"] == [] and result["locksets"] == []
    assert result["accesses"] > 0 and result["frames"] > 0


def test_run_races_captures_deadlock_not_raise(monkeypatch):
    monkeypatch.setattr(runner_mod, "SCENARIOS", {"abba": _deadlock_scenario})
    (result,) = run_races(["abba"])  # must not propagate DeadlockError
    assert "wait-for cycle" in result["deadlock"]


# --- through the argparse CLI ----------------------------------------------------


def test_cli_check_flags_end_to_end(dirty_tree, capsys):
    code = main(["check", str(dirty_tree), "--format", "json", "--select", "LMP003"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FINDINGS
    assert payload["violations"][0]["rule"] == "LMP003"


def test_cli_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for line in ("0  clean", "1  findings", "2  usage error", "3  internal error"):
        assert line in out
