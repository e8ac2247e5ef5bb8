"""Command-line interface: run any experiment by its DESIGN.md id.

Usage::

    python -m repro list
    python -m repro run figure2
    python -m repro run table2 figure5 nearmem
    python -m repro run all --out results/
    python -m repro run cluster --obs obs-dump/
    python -m repro obs obs-dump/

Each experiment prints its rendered tables/charts to stdout and,
with ``--out DIR``, also writes ``<id>.txt`` files.  ``--obs DIR``
additionally records causal spans + metrics and dumps them under
``DIR/<id>/``; ``repro obs`` re-renders the latency breakdown from
such a dump later.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import typing as _t


def _runner(module_name: str, **kwargs: _t.Any) -> _t.Callable[[], _t.Any]:
    """Late-import experiment runner (keeps `list` instant)."""

    def run() -> _t.Any:
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        return module.run(**kwargs)

    return run


def _figure_runner(figure: str) -> _t.Callable[[], _t.Any]:
    def run() -> _t.Any:
        from repro.experiments import figures

        return figures.run_figure(figure)

    return run


#: id -> (description, runner factory)
EXPERIMENTS: dict[str, tuple[str, _t.Callable[[], _t.Any]]] = {
    "table1": ("Table 1: memory-type latency and bandwidth", _runner("table1")),
    "table2": ("Table 2: Link0/Link1 under load", _runner("table2")),
    "figure2": ("Figure 2: 8 GB vector microbenchmark", _figure_runner("figure2")),
    "figure3": ("Figure 3: 24 GB vector microbenchmark", _figure_runner("figure3")),
    "figure4": ("Figure 4: 64 GB vector microbenchmark", _figure_runner("figure4")),
    "figure5": ("Figure 5: 96 GB vector (feasibility)", _figure_runner("figure5")),
    "latency": ("S4.3 loaded-latency ratios", _runner("latency")),
    "cost": ("S4.2 cost scenarios (Benefit 1)", _runner("cost")),
    "nearmem": ("S4.4 near-memory computing (Benefit 3)", _runner("nearmem")),
    "software": ("S2.1 software vs hardware disaggregation", _runner("software")),
    "applications": ("A9: KV store + graph BFS across pool architectures", _runner("applications")),
    "sweeps": ("A6: slowdown and working-set sweeps", _runner("sweeps")),
    "accelerators": ("A8: CPU vs Type-2 accelerator shipping", _runner("accelerators")),
    "multirack": ("A7: rack-scale pools over a PBR fabric", _runner("multirack")),
    "incast": ("A1: incast at the physical pool", _runner("incast")),
    "sizing": ("A2: shared-region sizing policies", _runner("sizing")),
    "migration": ("A3: locality balancing on/off", _runner("migration")),
    "alloc": ("A10: allocator gauntlet + live compaction", _runner("alloc")),
    "coherence": ("A4: snoop-filter pressure + lock designs", _runner("coherence")),
    "failures": ("A5: crash recovery regimes", _runner("failures")),
    "cluster": (
        "C1: multi-tenant rack control plane (admission, placement, leases, fairness)",
        _runner("cluster"),
    ),
    "scale": (
        "S1: 10k-tenant open-loop serving, elastic re-flex vs static split",
        _runner("scale"),
    ),
}


def list_experiments(out: _t.TextIO = sys.stdout) -> None:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _run) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}", file=out)


def run_experiments(
    names: _t.Sequence[str],
    out_dir: pathlib.Path | None = None,
    stream: _t.TextIO = sys.stdout,
    policies: _t.Sequence[str] | None = None,
    obs_dir: pathlib.Path | None = None,
    export_dir: pathlib.Path | None = None,
) -> int:
    """Run experiments by name; returns a process exit code.

    With *obs_dir*, every experiment runs with :mod:`repro.obs`
    installed: spans/metrics are dumped to ``obs_dir/<id>/`` and a
    per-request latency breakdown is printed after the tables.
    """
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("known:", file=sys.stderr)
        list_experiments(sys.stderr)
        return 2
    if policies is not None:
        if "cluster" not in names:
            print("--policies only applies to the 'cluster' experiment", file=sys.stderr)
            return 2
        from repro.cluster.placement import CLUSTER_POLICIES

        bad = [p for p in policies if p not in CLUSTER_POLICIES]
        if bad:
            known = ", ".join(sorted(CLUSTER_POLICIES))
            print(
                f"unknown placement polic{'ies' if len(bad) > 1 else 'y'}: "
                f"{', '.join(bad)} (known: {known})",
                file=sys.stderr,
            )
            return 2
    if export_dir is not None and "scale" not in names:
        print("--export only applies to the 'scale' experiment", file=sys.stderr)
        return 2

    for name in names:
        description, runner = EXPERIMENTS[name]
        if name == "cluster" and policies is not None:
            runner = _runner("cluster", policies=tuple(policies))
        if name == "scale" and export_dir is not None:
            runner = _runner("scale", export_dir=export_dir)
        print(f"=== {name}: {description} ===", file=stream)
        started = time.perf_counter()
        if obs_dir is not None:
            from repro.obs import Observability, latency_breakdown, render_breakdown

            obs = Observability()
            with obs.activated():
                result = runner()
            obs.dump(obs_dir / name)
            breakdown = render_breakdown(
                latency_breakdown(obs.recorder.spans),
                title=f"{name}: latency breakdown",
            )
        else:
            result = runner()
            breakdown = ""
        elapsed = time.perf_counter() - started
        rendered = result.render()
        print(rendered, file=stream)
        if breakdown:
            print(breakdown, file=stream)
            print(f"(observability dump: {obs_dir / name})", file=stream)
        print(f"({elapsed:.1f}s wall clock)\n", file=stream)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.txt").write_text(rendered + "\n")
    return 0


def summarize_obs(paths: _t.Sequence[pathlib.Path], stream: _t.TextIO = sys.stdout) -> int:
    """``repro obs``: render latency breakdowns from span dumps."""
    from repro.errors import ObservabilityError
    from repro.obs import summarize_dump
    from repro.obs.report import iter_dump_dirs

    status = 0
    for root in paths:
        try:
            dump_dirs = iter_dump_dirs(root)
        except ObservabilityError as exc:
            print(f"{root}: {exc}", file=sys.stderr)
            status = 2
            continue
        for dump_dir in dump_dirs:
            print(f"=== {dump_dir} ===", file=stream)
            try:
                print(summarize_dump(dump_dir), file=stream)
            except ObservabilityError as exc:
                print(f"{dump_dir}: {exc}", file=sys.stderr)
                status = 2
            print(file=stream)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Logical Memory Pools (HotNets '23) evaluation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run_cmd = commands.add_parser("run", help="run one or more experiments")
    run_cmd.add_argument("names", nargs="+", help="experiment ids, or 'all'")
    run_cmd.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write rendered <id>.txt files into",
    )
    run_cmd.add_argument(
        "--policies",
        default=None,
        help="comma-separated placement schedulers for the 'cluster' "
        "experiment (e.g. first-fit,locality-first)",
    )
    run_cmd.add_argument(
        "--export",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="for the 'scale' experiment: dump the elastic run's metrics "
        "timeline (Prometheus text, CSV, JSON) into DIR",
    )
    run_cmd.add_argument(
        "--obs",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="record causal spans + metrics while the experiments run and "
        "dump them (Perfetto trace, Prometheus text, time series) to "
        "DIR/<id>/; also prints a per-request latency breakdown",
    )
    obs_cmd = commands.add_parser(
        "obs",
        help="summarize observability dumps written by 'run --obs'",
    )
    obs_cmd.add_argument(
        "paths",
        nargs="+",
        type=pathlib.Path,
        help="dump directories (a single dump or a --obs root with one "
        "subdirectory per experiment)",
    )
    check_cmd = commands.add_parser(
        "check",
        help="run the LMP linter (syntactic and flow-sensitive rules in one "
        "pass; optionally also seed-determinism scenarios, the "
        "race/deadlock detectors, and the protocol model checker)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: no findings\n"
            "  1  findings: lint violations, a surviving lint mutant,"
            " nondeterminism, races, locksets, or deadlocks\n"
            "  2  usage error: unknown path, scenario, rule, spec, scope, or"
            " format\n"
            "  3  internal error: a scenario or the checker itself crashed\n"
            "  4  model-checking failure: a protocol spec has a"
            " counterexample, or a seeded protocol mutant survived"
        ),
    )
    check_cmd.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="files or directories to lint (default: the repro package source)",
    )
    check_cmd.add_argument(
        "--fix",
        action="store_true",
        help="apply autofixes (wrap nondeterministic set iteration in sorted())",
    )
    check_cmd.add_argument(
        "--determinism",
        nargs="*",
        metavar="SCENARIO",
        default=None,
        help="also rerun scenarios twice and diff their event streams "
        "('all' or names; no names = all)",
    )
    check_cmd.add_argument(
        "--races",
        nargs="*",
        metavar="SCENARIO",
        default=None,
        help="also replay scenarios under the happens-before race detector, "
        "lockset analysis, and deadlock detection ('all' or names; "
        "no names = all)",
    )
    check_cmd.add_argument(
        "--model",
        nargs="*",
        metavar="SPEC",
        default=None,
        help="also exhaustively model-check protocol specs (coherence, "
        "leases, admission, recovery; 'all' or names; no names = all) and "
        "replay any counterexample deterministically through the DES",
    )
    check_cmd.add_argument(
        "--scope",
        choices=["smoke", "deep"],
        default="smoke",
        help="model-checking state-space scope (default: smoke)",
    )
    check_cmd.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="bound model exploration to N actions deep (default: exhaustive)",
    )
    check_cmd.add_argument(
        "--mutants",
        action="store_true",
        help="self-test the linter (and, with --model, the model checker) "
        "by seeding known bugs; every mutant must die with file:line "
        "evidence",
    )
    check_cmd.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "json", "github"],
        default="text",
        help="report format: human-readable text (default), machine-readable "
        "json, or GitHub Actions ::error annotations",
    )
    check_cmd.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        default=None,
        help="comma-separated LMP rule ids to run (repeatable; default: all)",
    )
    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        list_experiments()
        return 0
    if args.command == "check":
        from repro.check.runner import run_check

        return run_check(
            args.paths,
            fix=args.fix,
            determinism=args.determinism,
            races=args.races,
            model=args.model,
            scope=args.scope,
            depth=args.depth,
            mutants=args.mutants,
            fmt=args.fmt,
            select=args.select,
        )
    if args.command == "obs":
        return summarize_obs(args.paths)
    policies = args.policies.split(",") if args.policies else None
    return run_experiments(
        args.names,
        out_dir=args.out,
        policies=policies,
        obs_dir=args.obs,
        export_dir=args.export,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
