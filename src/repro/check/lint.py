"""Driver for the ``LMP`` linter.

Walks python files, parses each one once, builds one call graph over
all of them, runs every applicable rule from :data:`ALL_RULES` — the
syntactic rules of :mod:`repro.check.rules` and the flow rules of
:mod:`repro.check.flow.rules` — and optionally applies autofixes
(today: wrapping set iteration in ``sorted(...)`` for LMP003).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
import typing as _t

from repro.check.flow.callgraph import CallGraph
from repro.check.flow.rules import (
    DeadCostStoreRule,
    HandleLifecycleRule,
    ResourceLeakRule,
    UnitConfusionRule,
    YieldDisciplineRule,
)
from repro.check.rules import (
    AmbientNondeterminismRule,
    BarePrintRule,
    FloatTimeEqualityRule,
    GlobalRandomRule,
    LintContext,
    MutableDefaultRule,
    Rule,
    SetIterationRule,
    SetPopRule,
    SharedWriteOutsideSyncRule,
    Violation,
)

#: every rule, in id order — the linter's registry
ALL_RULES: tuple[Rule, ...] = (
    GlobalRandomRule(),
    SetIterationRule(),
    FloatTimeEqualityRule(),
    MutableDefaultRule(),
    SetPopRule(),
    SharedWriteOutsideSyncRule(),
    BarePrintRule(),
    AmbientNondeterminismRule(),
    HandleLifecycleRule(),
    ResourceLeakRule(),
    UnitConfusionRule(),
    YieldDisciplineRule(),
    DeadCostStoreRule(),
)

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed_rules(source: str) -> dict[int, set[str] | None]:
    """Per-line ``# noqa`` suppressions: line -> rule ids (None = all)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None  # bare "# noqa": every rule
        else:
            out[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return out


@dataclasses.dataclass(frozen=True)
class FileReport:
    """Lint result for one file."""

    path: pathlib.Path
    violations: tuple[Violation, ...]
    parse_error: str | None = None


def iter_python_files(paths: _t.Sequence[pathlib.Path]) -> _t.Iterator[pathlib.Path]:
    """Expand files and directories into a sorted stream of .py files."""
    seen: set[pathlib.Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.parts)
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    return ".".join([*parts[:-1], path.stem])


def _lint_tree(
    source: str,
    tree: ast.Module,
    path: pathlib.Path,
    graph: CallGraph,
    rules: _t.Sequence[Rule],
) -> FileReport:
    ctx = LintContext.for_path(path, graph, tree)
    violations = [
        violation
        for rule in rules
        if rule.applies(ctx)
        for violation in rule.check(tree, ctx)
    ]
    suppressed = _suppressed_rules(source)
    if suppressed:
        violations = [
            v
            for v in violations
            if not (
                v.line in suppressed
                and (suppressed[v.line] is None or v.rule_id in (suppressed[v.line] or ()))
            )
        ]
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return FileReport(path=path, violations=tuple(violations))


def lint_source(
    source: str,
    path: pathlib.Path,
    rules: _t.Sequence[Rule] = ALL_RULES,
) -> FileReport:
    """Lint one module's source text; its call graph spans just this module."""
    try:
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        return FileReport(path=path, violations=(), parse_error=str(exc))
    graph = CallGraph()
    graph.add_module(tree, path, _module_name(path))
    return _lint_tree(source, tree, path, graph, rules)


def lint_file(path: pathlib.Path, rules: _t.Sequence[Rule] = ALL_RULES) -> FileReport:
    return lint_source(path.read_text(encoding="utf-8"), path, rules)


def lint_paths(
    paths: _t.Sequence[pathlib.Path], rules: _t.Sequence[Rule] = ALL_RULES
) -> list[FileReport]:
    """Lint every python file under *paths*; reports with findings only.

    Every file is parsed once, and one call graph spans all of them, so
    LMP013/LMP014 resolve calls across modules.
    """
    graph = CallGraph()
    parsed: list[FileReport | tuple[str, ast.Module, pathlib.Path]] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError) as exc:
            parsed.append(FileReport(path=path, violations=(), parse_error=str(exc)))
            continue
        graph.add_module(tree, path, _module_name(path))
        parsed.append((source, tree, path))
    reports = []
    for entry in parsed:
        report = entry if isinstance(entry, FileReport) else _lint_tree(*entry, graph, rules)
        if report.violations or report.parse_error:
            reports.append(report)
    return reports


def apply_fixes(source: str, violations: _t.Sequence[Violation]) -> tuple[str, int]:
    """Rewrite *source* applying every autofixable violation's fix.

    Today's only fix wraps the offending expression in ``sorted(...)``.
    Returns (new_source, fixes_applied).  Fixes are applied bottom-up so
    earlier spans stay valid.
    """
    lines = source.splitlines(keepends=True)
    fixable = [v for v in violations if v.autofixable and v.fix_span is not None]
    fixable.sort(key=lambda v: v.fix_span, reverse=True)  # type: ignore[arg-type, return-value]
    applied = 0
    for violation in fixable:
        assert violation.fix_span is not None
        line_a, col_a, line_b, col_b = violation.fix_span
        if line_a < 1 or line_b > len(lines):
            continue
        lines[line_b - 1] = (
            lines[line_b - 1][:col_b] + ")" + lines[line_b - 1][col_b:]
        )
        lines[line_a - 1] = (
            lines[line_a - 1][:col_a] + "sorted(" + lines[line_a - 1][col_a:]
        )
        applied += 1
    return "".join(lines), applied


def fix_file(path: pathlib.Path, rules: _t.Sequence[Rule] = ALL_RULES) -> int:
    """Lint *path* and write back autofixes; returns fixes applied."""
    source = path.read_text(encoding="utf-8")
    report = lint_source(source, path, rules)
    fixed, applied = apply_fixes(source, report.violations)
    if applied:
        # refuse to write back source the fixer broke
        ast.parse(fixed, filename=str(path))
        path.write_text(fixed)
    return applied
