"""Wall-clock budget for the static-analysis gate.

The check layer runs on every PR, so its own latency is a product
metric: the lint pass (one parse per file, then the syntactic rules
and the CFG + dataflow rules over every function in ``src/repro``)
must stay under its CI budget or the gate stops being "the cheap
complement" to simulator-level validation.  Standalone::

    PYTHONPATH=src python benchmarks/bench_check.py --smoke

times one full-repo lint pass (LMP002–LMP015) and the lint mutation
self-test, asserts that together they fit the budget and that every
mutant dies, and writes ``BENCH_check.json`` for the CI artifact
upload.
"""

from __future__ import annotations

import pathlib
import time

from _harness import write_json

#: CI budget for one full-repo lint pass plus the mutant self-test
BUDGET_S = 10.0

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def smoke(out: str = "BENCH_check.json") -> None:
    from repro.check.flow.mutants import run_lint_mutants
    from repro.check.lint import iter_python_files, lint_paths

    files = len(list(iter_python_files([_SRC])))
    functions = _count_functions()

    # warm-up: imports, bytecode, and the ast module out of the timing
    lint_paths([_SRC])

    started = time.perf_counter()
    lint_reports = lint_paths([_SRC])
    lint_s = time.perf_counter() - started
    lint_findings = sum(len(r.violations) for r in lint_reports)

    started = time.perf_counter()
    mutant_reports = run_lint_mutants()
    mutants_s = time.perf_counter() - started
    caught = sum(1 for r in mutant_reports if r.caught)

    results = {
        "files": files,
        "functions": functions,
        "budget_s": BUDGET_S,
        "lint": {
            "elapsed_s": round(lint_s, 3),
            "files_per_sec": round(files / lint_s, 1) if lint_s else 0.0,
            "functions_per_sec": round(functions / lint_s, 1) if lint_s else 0.0,
            "findings": lint_findings,
        },
        "lint_mutants": {
            "elapsed_s": round(mutants_s, 3),
            "seeded": len(mutant_reports),
            "caught": caught,
        },
    }
    print(
        f"lint pass: {files} files / {functions} functions in {lint_s:.2f}s "
        f"({lint_findings} finding(s))"
    )
    print(f"lint mutants: {caught}/{len(mutant_reports)} caught in {mutants_s:.2f}s")

    write_json(out, {"target": str(_SRC), "results": results})

    total_s = lint_s + mutants_s
    if total_s > BUDGET_S:
        raise SystemExit(
            f"lint pass + mutants took {total_s:.2f}s — over the "
            f"{BUDGET_S:.0f}s CI budget"
        )
    if caught != len(mutant_reports):
        raise SystemExit(
            f"lint mutation harness: only {caught}/{len(mutant_reports)} seeded "
            "defect(s) caught"
        )


def _count_functions() -> int:
    import ast

    from repro.check.lint import iter_python_files

    total = 0
    for path in iter_python_files([_SRC]):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        total += sum(
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(tree)
        )
    return total


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke: time the lint pass + mutants, "
        "write BENCH_check.json",
    )
    parser.add_argument("--out", default="BENCH_check.json")
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke")
    smoke(out=cli_args.out)
