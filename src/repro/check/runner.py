"""Orchestrates ``python -m repro check``.

Subcommands of the reproducibility gate: lint (every ``LMP`` rule —
syntactic and flow-sensitive — in one pass, optional ``--fix``), seed
determinism (``--determinism``), the dynamic race / lockset / deadlock
detectors (``--races``, which replays the determinism scenarios under
:class:`~repro.check.races.RaceSanitizer`), and the explicit-state
model checker (``--model``, which exhaustively explores the protocol
specs in :mod:`repro.check.model` and replays any counterexample
through the real DES).  ``--mutants`` demands the linter kill every
seeded lint defect, and with ``--model`` also that the model checker
kill every seeded protocol bug.

Exit codes (stable, asserted by tests and documented in ``--help``):

* ``0`` — clean: no findings of any kind
* ``1`` — findings: lint violations (syntactic or flow), parse errors,
  a surviving lint mutant, nondeterministic scenarios, races, lockset
  violations, or deadlocks
* ``2`` — usage error: unknown path, scenario, rule, spec, scope, or
  format
* ``3`` — internal error: a scenario or the checker itself crashed
* ``4`` — model-checking failure: a protocol spec has a counterexample,
  or a seeded protocol mutant survived (the runner exits with the
  maximum applicable code)
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
import traceback
import typing as _t

from repro.check.determinism import SCENARIOS, DeterminismHarness, DeterminismReport
from repro.check.flow.mutants import run_lint_mutants
from repro.check.lint import ALL_RULES, FileReport, fix_file, iter_python_files, lint_paths
from repro.check.races import RaceSanitizer
from repro.errors import DeadlockError, DeterminismError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_MODEL = 4

FORMATS = ("text", "json", "github")


def default_paths() -> list[pathlib.Path]:
    """The package's own source tree, found relative to this file."""
    return [pathlib.Path(__file__).resolve().parent.parent]


def _selected_ids(select: _t.Sequence[str] | None) -> set[str] | None:
    """Validate ``--select`` ids against the rule registry; the empty
    set means "everything", None means invalid."""
    if select is None:
        return set()
    wanted = {s.strip().upper() for item in select for s in item.split(",") if s.strip()}
    known = {rule.id for rule in ALL_RULES}
    unknown = sorted(wanted - known)
    if unknown:
        print(
            f"repro check: unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return None
    return wanted


def _scenario_names(requested: _t.Sequence[str]) -> list[str] | None:
    names = list(requested) or sorted(SCENARIOS)
    if "all" in names:
        names = sorted(SCENARIOS)
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        print(
            f"repro check: unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SCENARIOS))})",
            file=sys.stderr,
        )
        return None
    return names


def _model_spec_names(requested: _t.Sequence[str]) -> list[str] | None:
    from repro.check.model import SPECS

    names = list(requested) or sorted(SPECS)
    if "all" in names:
        names = sorted(SPECS)
    unknown = sorted(set(names) - set(SPECS))
    if unknown:
        print(
            f"repro check: unknown model spec(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SPECS))})",
            file=sys.stderr,
        )
        return None
    return names


def run_model_checks(
    names: _t.Sequence[str],
    scope: str = "smoke",
    depth: int | None = None,
    max_states: int = 200_000,
) -> list[dict[str, _t.Any]]:
    """Explore each named spec; replay the first counterexample.

    Returns one record per spec: ``{spec, result, replay, elapsed_s}``
    where ``result`` is an
    :class:`~repro.check.model.ExplorationResult` and ``replay`` is a
    :class:`~repro.check.model.ReplayResult` (or None when the spec
    held).  Counterexample replays include a liveness lasso's cycle, so
    the deterministic repro exhibits the bug, not just its prefix.
    """
    from repro.check.model import Explorer, build_spec, checked_replay

    records: list[dict[str, _t.Any]] = []
    for name in names:
        spec = build_spec(name, scope)
        started = time.perf_counter()
        result = Explorer(spec, max_depth=depth, max_states=max_states).run()
        elapsed = time.perf_counter() - started
        replay = None
        if result.violations:
            violation = result.violations[0]
            if violation.trace or violation.cycle:
                replay = checked_replay(spec, violation.trace + violation.cycle)
        records.append(
            {"spec": name, "result": result, "replay": replay, "elapsed_s": elapsed}
        )
    return records


def run_races(names: _t.Sequence[str]) -> list[dict[str, _t.Any]]:
    """Run each scenario under a fresh :class:`RaceSanitizer`.

    Returns one record per scenario:
    ``{scenario, races, locksets, deadlock, error, accesses, frames}``.
    Never raises — crashes are captured in the record's ``error``.
    """
    results: list[dict[str, _t.Any]] = []
    for name in names:
        detector = RaceSanitizer()
        deadlock: str | None = None
        error: str | None = None
        try:
            with detector.installed():
                SCENARIOS[name]()
        except DeadlockError as exc:
            deadlock = str(exc)
        except Exception:
            error = traceback.format_exc()
        results.append(
            {
                "scenario": name,
                "races": [r.to_json() for r in detector.races],
                "locksets": [r.to_json() for r in detector.lockset_reports],
                "deadlock": deadlock,
                "error": error,
                "accesses": detector.accesses_seen,
                "frames": detector.frames_tracked,
                "_detector": detector,
            }
        )
    return results


def _render_race_result(result: dict[str, _t.Any], stream: _t.TextIO) -> None:
    detector: RaceSanitizer = result["_detector"]
    name = result["scenario"]
    if result["error"]:
        print(f"{name}: INTERNAL ERROR\n{result['error']}", file=stream)
        return
    if result["deadlock"]:
        print(f"{name}: DEADLOCK\n{result['deadlock']}", file=stream)
        return
    if detector.clean:
        print(
            f"{name}: race-free ({result['accesses']} access(es) over "
            f"{result['frames']} frame(s), no deadlock)",
            file=stream,
        )
        return
    print(
        f"{name}: {len(detector.races)} race(s), "
        f"{len(detector.lockset_reports)} lockset violation(s)",
        file=stream,
    )
    for report in detector.races:
        print(report.render(), file=stream)
    for lockset in detector.lockset_reports:
        print(lockset.render(), file=stream)


def _github_escape(message: str) -> str:
    return message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _emit_lint(
    reports: _t.Sequence[FileReport], fmt: str, stream: _t.TextIO
) -> None:
    for report in reports:
        if report.parse_error:
            if fmt == "github":
                print(
                    f"::error file={report.path}::parse error: "
                    f"{_github_escape(report.parse_error)}",
                    file=stream,
                )
            else:
                print(f"{report.path}: parse error: {report.parse_error}", file=stream)
        for violation in report.violations:
            if fmt == "github":
                print(
                    f"::error file={violation.path},line={violation.line},"
                    f"col={violation.col + 1},title={violation.rule_id}::"
                    f"{_github_escape(violation.message)}",
                    file=stream,
                )
            else:
                print(violation.format(), file=stream)


def run_check(
    paths: _t.Sequence[pathlib.Path] | None = None,
    fix: bool = False,
    determinism: _t.Sequence[str] | None = None,
    races: _t.Sequence[str] | None = None,
    model: _t.Sequence[str] | None = None,
    scope: str = "smoke",
    depth: int | None = None,
    mutants: bool = False,
    fmt: str = "text",
    select: _t.Sequence[str] | None = None,
    stream: _t.TextIO | None = None,
) -> int:
    """Lint *paths* (default: the installed ``repro`` package), then
    optionally verify seed determinism, run the race/deadlock detectors
    over the named scenarios, and model-check the named protocol specs.
    With *mutants*, also self-test the linter (and, with *model*, the
    model checker) against seeded bugs.  Returns the exit code
    documented in the module docstring (0/1/2/3/4)."""
    if stream is None:
        stream = sys.stdout
    if fmt not in FORMATS:
        print(
            f"repro check: unknown format {fmt!r} (known: {', '.join(FORMATS)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    targets = list(paths) if paths else default_paths()
    for target in targets:
        if not target.exists():
            print(f"repro check: no such path: {target}", file=sys.stderr)
            return EXIT_USAGE
    selected_ids = _selected_ids(select)
    if selected_ids is None:
        return EXIT_USAGE
    rules = tuple(r for r in ALL_RULES if not selected_ids or r.id in selected_ids)
    determinism_names: list[str] | None = None
    if determinism is not None:
        determinism_names = _scenario_names(determinism)
        if determinism_names is None:
            return EXIT_USAGE
    race_names: list[str] | None = None
    if races is not None:
        race_names = _scenario_names(races)
        if race_names is None:
            return EXIT_USAGE
    model_names: list[str] | None = None
    if model is not None:
        from repro.check.model import SCOPES

        model_names = _model_spec_names(model)
        if model_names is None:
            return EXIT_USAGE
        if scope not in SCOPES:
            print(
                f"repro check: unknown scope {scope!r} "
                f"(known: {', '.join(SCOPES)})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if depth is not None and depth < 1:
            print(f"repro check: depth must be >= 1, got {depth}", file=sys.stderr)
            return EXIT_USAGE

    try:
        exit_code = EXIT_CLEAN
        fixes_applied: int | None = None
        if fix:
            fixers = [r for r in rules if r.autofixable]
            fixes_applied = 0
            for path in iter_python_files(targets):
                fixes_applied += fix_file(path, fixers)
            if fmt != "json":
                print(f"applied {fixes_applied} autofix(es)", file=stream)

        reports = lint_paths(targets, rules)
        violation_count = sum(len(r.violations) for r in reports)
        parse_errors = [r for r in reports if r.parse_error]
        if violation_count or parse_errors:
            exit_code = EXIT_FINDINGS
        file_count = len(list(iter_python_files(targets)))
        if fmt != "json":
            _emit_lint(reports, fmt, stream)
            if violation_count:
                print(
                    f"repro check: {violation_count} violation(s) in "
                    f"{len(reports)} of {file_count} file(s)",
                    file=stream,
                )
            else:
                print(f"repro check: {file_count} file(s) clean", file=stream)

        lint_mutant_reports = run_lint_mutants() if mutants else []
        if mutants:
            lint_missed = [r for r in lint_mutant_reports if not r.caught]
            if fmt != "json":
                for report in lint_mutant_reports:
                    print(report.render(), file=stream)
                print(
                    f"lint mutation harness: "
                    f"{len(lint_mutant_reports) - len(lint_missed)}"
                    f"/{len(lint_mutant_reports)} seeded defect(s) caught",
                    file=stream,
                )
            if fmt == "github":
                for report in lint_missed:
                    print(
                        f"::error title=lint mutant survived ({report.name})::"
                        f"{_github_escape(report.description)}",
                        file=stream,
                    )
            if lint_missed:
                exit_code = max(exit_code, EXIT_FINDINGS)

        determinism_reports: list[DeterminismReport] = []
        if determinism_names is not None:
            harness = DeterminismHarness()
            for name in determinism_names:
                try:
                    report = harness.run(name)
                except DeterminismError as exc:
                    # harness-level failure (not a mere divergence)
                    print(str(exc), file=sys.stderr)
                    return EXIT_INTERNAL
                determinism_reports.append(report)
                if fmt != "json":
                    print(report.render(), file=stream)
                if not report.identical:
                    exit_code = max(exit_code, EXIT_FINDINGS)

        race_results: list[dict[str, _t.Any]] = []
        if race_names is not None:
            race_results = run_races(race_names)
            for result in race_results:
                if fmt != "json":
                    _render_race_result(result, stream)
                if result["error"]:
                    exit_code = max(exit_code, EXIT_INTERNAL)
                elif (
                    result["races"] or result["locksets"] or result["deadlock"]
                ):
                    exit_code = max(exit_code, EXIT_FINDINGS)
            if fmt == "github":
                for result in race_results:
                    for race in result["races"]:
                        print(
                            f"::error title=data race ({result['scenario']})::"
                            f"{_github_escape(race['kind'] + ' on ' + race['frame'])}",
                            file=stream,
                        )
                    if result["deadlock"]:
                        print(
                            f"::error title=deadlock ({result['scenario']})::"
                            f"{_github_escape(result['deadlock'])}",
                            file=stream,
                        )

        model_records: list[dict[str, _t.Any]] = []
        mutant_reports: list[_t.Any] = []
        if model_names is not None:
            model_records = run_model_checks(model_names, scope=scope, depth=depth)
            for record in model_records:
                result = record["result"]
                if fmt != "json":
                    print(f"{result.render()}  [{record['elapsed_s']:.2f}s]", file=stream)
                    for violation in result.violations:
                        print(violation.render(), file=stream)
                    if record["replay"] is not None:
                        print(record["replay"].render(), file=stream)
                if result.violations:
                    exit_code = max(exit_code, EXIT_MODEL)
            if fmt == "github":
                for record in model_records:
                    for violation in record["result"].violations:
                        print(
                            f"::error title=model {violation.kind} "
                            f"({record['spec']}: {violation.property})::"
                            f"{_github_escape(violation.render())}",
                            file=stream,
                        )
            if mutants:
                from repro.check.model.mutants import run_mutants as _run_mutants

                mutant_reports = _run_mutants(scope)
                missed = [r for r in mutant_reports if not r.caught]
                if fmt != "json":
                    for report in mutant_reports:
                        print(report.render(), file=stream)
                    print(
                        f"mutation harness: {len(mutant_reports) - len(missed)}"
                        f"/{len(mutant_reports)} seeded bug(s) caught",
                        file=stream,
                    )
                if fmt == "github":
                    for report in missed:
                        print(
                            f"::error title=mutant survived ({report.name})::"
                            f"{_github_escape(report.description)}",
                            file=stream,
                        )
                if missed:
                    exit_code = max(exit_code, EXIT_MODEL)

        if fmt == "json":
            payload = {
                "version": 2,
                "exit_code": exit_code,
                "files_checked": file_count,
                "fixes_applied": fixes_applied,
                "violations": [
                    {
                        "rule": v.rule_id,
                        "path": str(v.path),
                        "line": v.line,
                        "col": v.col + 1,
                        "message": v.message,
                        "autofixable": v.autofixable,
                    }
                    for r in reports
                    for v in r.violations
                ],
                "parse_errors": [
                    {"path": str(r.path), "error": r.parse_error}
                    for r in parse_errors
                ],
                "determinism": [
                    {
                        "scenario": r.scenario,
                        "identical": r.identical,
                        "events_first": r.events_first,
                        "events_second": r.events_second,
                        "first_divergence": r.first_divergence,
                    }
                    for r in determinism_reports
                ],
                "races": [
                    {k: v for k, v in result.items() if not k.startswith("_")}
                    for result in race_results
                ],
                "model": [
                    {
                        "spec": record["spec"],
                        "scope": scope,
                        "states": record["result"].states,
                        "transitions": record["result"].transitions,
                        "depth": record["result"].depth,
                        "complete": record["result"].complete,
                        "por": record["result"].por_used,
                        "liveness_checked": record["result"].liveness_checked,
                        "elapsed_s": record["elapsed_s"],
                        "violations": [
                            v.to_json() for v in record["result"].violations
                        ],
                        "replay": (
                            record["replay"].to_json()
                            if record["replay"] is not None
                            else None
                        ),
                    }
                    for record in model_records
                ],
                "mutants": [report.to_json() for report in mutant_reports],
                "lint_mutants": [report.to_json() for report in lint_mutant_reports],
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        return exit_code
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
