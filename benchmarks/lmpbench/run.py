"""lmpbench: the repository's benchmark.

Timed run (end-to-end metrics), one workload or all four::

    python3 benchmarks/lmpbench/run.py [--workload W] [--seed N] [--seconds S] [--out F]

Traced run (per-layer metrics; writes benchmarks/lmpbench/trace/<W>.json)::

    python3 benchmarks/lmpbench/run.py --trace [--workload W] [--seed N]

Per-experiment wall times for every ``repro run <id>`` (informational)::

    python3 benchmarks/lmpbench/run.py --suite [--out suite.json]

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` each workload runs in
its own fresh child process, one at a time.  The exit code is 1 when any
correctness check fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import repro  # noqa: E402

if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

import layers  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from bench_scale import _assert_seams_cold  # noqa: E402
from repro.obs import Observability  # noqa: E402

#: the run length BENCHMARK.json gives
RUN_SECONDS = 20
#: constructions timed per run; setup_s is their median
SETUP_SAMPLES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: printed beside the end-to-end metrics on a timed run
HOST = {
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "host_speed": "x",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "bench.self_s": "s",
    "trace.profiled_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_x": "x",
    "sim.engine.events": "count",
    "sim.engine.events_per_op": "count/op",
    "sim.engine.ns_per_event": "ns",
    "sim.fluid.transfers": "count",
    "fabric.transport.ops": "count",
    "fabric.transport.bytes": "B",
    "fabric.transport.bytes_copied": "B",
    "hw.cache.hit_ratio": "ratio",
    "core.pool.allocs": "count",
    "core.pool.frees": "count",
    "core.migration.bytes": "B",
    "core.regions.resizes": "count",
    "cluster.admission.grants": "count",
    "cluster.admission.rejects": "count",
    "cluster.admission.grant_ratio": "ratio",
    "cluster.admission.grant_p99_us": "sim-us",
    "scale.traffic.arrivals": "count",
    "scale.autoscaler.actions": "count",
    "scale.pump.max_lag_ns": "sim-ns",
    **workloads.SIMULATED,
    **{f"model.{cat}_pct": "%" for cat in (*layers.SPLIT_CATEGORIES, "other")},
}

UNITS = {**END_TO_END, **PER_LAYER, **HOST}


def _seams_cold() -> list[str]:
    """Detector/observability seams are None and bare dispatch engages."""
    try:
        _assert_seams_cold()
    except SystemExit as exc:
        return [str(exc)]
    return []


def _record(
    workload: _t.Any,
    passes: list[workloads.PassResult],
    failures: list[str],
    metrics: dict[str, float],
) -> dict[str, _t.Any]:
    first = passes[0]
    for index, later in enumerate(passes[1:], start=2):
        if later.sim != first.sim:
            failures.append(f"pass {index}'s simulated metrics differ from pass 1's")
    for result in passes:
        failures += [f for f in result.failures if f not in failures]
    failed = sum(p.failed_ops for p in passes) + len(failures)
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "simulated": first.sim,
        "pass_wall_s": [p.wall_s for p in passes],
    }


def measure(workload: _t.Any, seconds: float) -> dict[str, _t.Any]:
    """The timed run: set up several times, then passes for *seconds*.

    Host times are read on a :class:`refclock.ReferenceClock`; the raw
    host seconds are reported beside them."""
    failures = _seams_cold()
    setup, setup_raw = [], []
    passes: list[workloads.PassResult] = []
    spent: list[float] = []
    with refclock.ReferenceClock() as clock:
        for _ in range(SETUP_SAMPLES):
            gc.collect()
            phase = workloads.Phase(clock.now)
            with phase:
                workload.setup()
            setup.append(phase.wall_s)
            setup_raw.append(phase.raw_s)
        started = time.perf_counter()
        while True:
            gc.collect()
            pass_started = time.perf_counter()
            passes.append(workload.run_pass(workloads.Phase(clock.now)))
            spent.append(time.perf_counter() - pass_started)
            # start another pass only if a typical one still fits
            if time.perf_counter() - started + statistics.median(spent) > seconds:
                break
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = _record(workload, passes, failures, metrics)
    record["host"] = {
        "wall_raw_s": statistics.median(p.raw_s for p in passes),
        "setup_raw_s": statistics.median(setup_raw),
        "host_speed": statistics.median(clock.speeds),
    }
    record["setup_samples_s"] = setup
    return record


def trace(workload: _t.Any, seed: int) -> dict[str, _t.Any]:
    """The traced run: a plain pass, a profiled and instrumented pass,
    and (figures, dense) a pass under ``repro.obs`` for the model split."""
    failures = _seams_cold()
    gc.collect()
    plain = workload.run_pass(workloads.Phase())
    gc.collect()
    profiler = cProfile.Profile()
    with layers.Instruments() as instruments:
        traced = workload.run_pass(workloads.Phase(profiler=profiler))
    split = {f"model.{cat}_pct": 0.0 for cat in (*layers.SPLIT_CATEGORIES, "other")}
    source = workload.split_source()
    if source is not None:
        obs = Observability()
        gc.collect()
        with obs.activated():
            failures += source.run_pass(workloads.Phase()).failures
        split = layers.model_split(obs.recorder.spans)
        del obs
        failures += _seams_cold()

    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    folded, profiled = layers.fold(stats)
    counts = instruments.counts()
    events = counts["sim.engine.events"]
    metrics = {
        **{f"{layer}.self_s": folded[layer] for layer in layers.LAYERS},
        "bench.self_s": folded["bench"],
        "trace.profiled_s": profiled,
        "trace.coverage_pct": 100.0 * sum(folded[layer] for layer in layers.LAYERS) / profiled,
        "trace.overhead_x": traced.wall_s / plain.wall_s,
        **counts,
        "sim.engine.events_per_op": events / traced.attempted,
        "sim.engine.ns_per_event": plain.wall_s * 1e9 / events,
        **traced.counts,
        **traced.sim,
        **split,
    }
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(PER_LAYER)}")
    metrics = {name: metrics[name] for name in PER_LAYER}
    record = _record(workload, [plain, traced], failures, metrics)
    out = HERE / "trace" / f"{workload.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "layers_self_s": folded,
                "profiled_s": profiled,
                "metrics": metrics,
                "pstats": layers.raw_pstats(stats, ROOT),
            },
            indent=1,
        )
        + "\n"
    )
    return record


def emit(record: dict[str, _t.Any], with_simulated: bool) -> None:
    name = record["workload"]
    rows = dict(record["metrics"])
    if with_simulated:
        rows.update(record["host"])
        rows.update(record["simulated"])
    for metric, value in rows.items():
        print(f"{name} {metric} {value!r} {UNITS[metric]}")
    for failure in record["failures"]:
        print(f"{name}: check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric: {"value": value, "unit": UNITS[metric]}
                    for metric, value in record["metrics"].items()
                },
            }
        ),
        flush=True,
    )


def run_one(args: argparse.Namespace) -> int:
    workload = workloads.make(args.workload, args.seed, args.quick)
    if args.trace:
        record = trace(workload, args.seed)
    else:
        record = measure(workload, args.seconds)
    emit(record, with_simulated=not args.trace)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["correct"] else 1


def _child(argv: list[str]) -> tuple[int, list[str]]:
    """Run this script in a fresh process; its exit code and stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), *argv],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh child process, one at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    detail: dict[str, _t.Any] = {}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        code, lines = _child(argv)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: the child exited {code} without a result", file=sys.stderr)
            summary["correct"] = False
            summary["failed"] += 1
            continue
        values = {}
        for line in lines[:-1]:
            print(line)
            parts = line.split()
            if len(parts) == 4 and parts[0] == name:
                values[parts[1]] = float(parts[2])
        detail[name] = {**result, "values": values}
        summary["correct"] = summary["correct"] and result["correct"] and code == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary), flush=True)
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "workloads": detail}
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if summary["correct"] else 1


def run_experiment(name: str) -> int:
    """Child side of --suite: one experiment, its wall and simulated time."""
    from repro.cli import EXPERIMENTS
    from repro.sim.engine import Engine

    engines: list[Engine] = []
    init = Engine.__init__

    def collect(engine: Engine, *args: _t.Any, **kwargs: _t.Any) -> None:
        init(engine, *args, **kwargs)
        engines.append(engine)

    Engine.__init__ = collect  # type: ignore[method-assign]
    try:
        _description, runner = EXPERIMENTS[name]
        with refclock.ReferenceClock() as clock:
            phase = workloads.Phase(clock.now)
            with phase:
                runner()
    finally:
        Engine.__init__ = init  # type: ignore[method-assign]
    sim_ns = sum(engine.now for engine in engines)
    print(json.dumps({"wall_s": phase.wall_s, "wall_raw_s": phase.raw_s, "sim_ns": sim_ns,
                      "engines": len(engines)}))
    return 0


def run_suite(out: str | None) -> int:
    """Host seconds (at the reference speed) and simulated ns per host
    second of every experiment."""
    from repro.cli import EXPERIMENTS

    rows: dict[str, _t.Any] = {}
    code = 0
    for name in EXPERIMENTS:
        child_code, lines = _child(["--experiment", name])
        try:
            row = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"suite: {name} exited {child_code} without a result", file=sys.stderr)
            code = 1
            continue
        row["sim_ns_per_wall_s"] = row["sim_ns"] / row["wall_s"]
        rows[name] = row
        print(f"suite {name} wall_s {row['wall_s']!r} s")
        print(f"suite {name} sim_ns_per_wall_s {row['sim_ns_per_wall_s']!r} sim-ns/s")
    total = sum(row["wall_s"] for row in rows.values())
    print(f"suite total wall_s {total!r} s")
    path = pathlib.Path(out) if out else HERE / "suite.json"
    path.write_text(json.dumps({"experiments": rows, "total_wall_s": total}, indent=1) + "\n")
    print(json.dumps({"correct": code == 0, "experiments": len(rows), "total_wall_s": total}))
    return code


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full result as JSON here")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--experiment", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.experiment:
        return run_experiment(args.experiment)
    if args.suite:
        return run_suite(args.out)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
