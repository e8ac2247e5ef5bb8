"""``repro.check`` — determinism linter, runtime sanitizers, CI gate.

Several layers substitute for the silicon validation real CXL
simulators lean on:

* the ``LMP`` linter (:mod:`repro.check.lint`) flags
  simulation-correctness hazards statically in one pass per file: the
  syntactic rules in :mod:`repro.check.rules` and the flow-sensitive
  CFG/dataflow rules in :mod:`repro.check.flow`,
* the runtime sanitizers (:mod:`repro.check.sanitizers`) enforce
  allocator and coherence invariants while scenarios run,
* the race/lockset/deadlock detectors (:mod:`repro.check.races`)
  shadow shared-region accesses with vector clocks and watch the
  event heap for wait-for cycles,
* the determinism harness (:mod:`repro.check.determinism`) reruns
  scenarios and diffs their event streams byte for byte,
* the explicit-state model checker (:mod:`repro.check.model`)
  exhaustively explores abstract specs of the pool's protocols
  (coherence, leases, admission, recovery) and replays every
  counterexample deterministically through the real DES.

Entry point: ``python -m repro check [--fix] [--select ...] [--mutants]
[--determinism ...] [--races ...] [--model ... [--scope smoke|deep]]
[--format text|json|github] [path...]``.
"""

from repro.check.determinism import SCENARIOS, DeterminismHarness, DeterminismReport
from repro.check.lint import (
    ALL_RULES,
    FileReport,
    apply_fixes,
    fix_file,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.check.model import (
    ExplorationResult,
    Explorer,
    ModelSpec,
    ModelViolation,
    ReplayResult,
    build_spec,
    checked_replay,
)
from repro.check.races import FrameAccess, LocksetReport, RaceReport, RaceSanitizer
from repro.check.rules import LintContext, Rule, Violation
from repro.check.runner import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    EXIT_MODEL,
    EXIT_USAGE,
    run_check,
    run_model_checks,
)
from repro.check.sanitizers import AllocSanitizer, CoherenceSanitizer

__all__ = [
    "ALL_RULES",
    "AllocSanitizer",
    "CoherenceSanitizer",
    "DeterminismHarness",
    "DeterminismReport",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL",
    "EXIT_MODEL",
    "EXIT_USAGE",
    "ExplorationResult",
    "Explorer",
    "ModelSpec",
    "ModelViolation",
    "ReplayResult",
    "FileReport",
    "FrameAccess",
    "LintContext",
    "LocksetReport",
    "RaceReport",
    "RaceSanitizer",
    "Rule",
    "SCENARIOS",
    "Violation",
    "apply_fixes",
    "build_spec",
    "checked_replay",
    "fix_file",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_check",
    "run_model_checks",
]
