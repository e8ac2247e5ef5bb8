"""The one regression gate behind the ``--smoke`` benches.

``bench_engine.py`` and ``bench_scale.py`` hand :func:`smoke` a list of
configurations; everything else lives here, once:

* :func:`assert_seams_cold` — every detector/observability seam is
  ``None`` and no event sink is installed, so the rates measure the
  simulator, not sink dispatch (``bench_cluster`` and
  ``bench_alloc`` run it too);
* :func:`load_baseline` — the committed floors, or a failure when the
  file is missing;
* :func:`best_of` — the best of N rounds, timed on lmpbench's
  :class:`refclock.ReferenceClock`, so a rate reads what it would at the
  reference host speed however fast the host runs right now;
* :func:`write_json` — the one results writer;
* :func:`check_floors` and :func:`gate` — every configuration must have
  a committed floor, and stay within :data:`REGRESSION_TOLERANCE` of it.

Each configuration names the rate it is gated on (``events_per_sec``,
``bytes_per_sec``, ...): the floor is stored under that name, so a
workload whose natural unit is not events keeps a meaningful gate when
its event count changes.

``--capture`` measures and writes the JSON without the gate; the
committed floors are 70% of the best rate over two captures.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import typing as _t

sys.path.append(str(pathlib.Path(__file__).resolve().parent / "lmpbench"))
import refclock  # noqa: E402

#: allowed rate drop below a committed floor before the gate fails
REGRESSION_TOLERANCE = 0.20

#: a clock: reference seconds while a smoke run measures
Now = _t.Callable[[], float]
#: (name, rate, run): *run* times its own measured section on the clock
#: it is given and returns a result whose *rate* entry is the gated rate
Config = tuple[str, str, _t.Callable[[Now], dict[str, float]]]


def assert_seams_cold() -> None:
    """Every monitor and observability seam defaults to ``None``, and no
    event sink is installed."""
    from repro.core.api import LmpSession
    from repro.core.coherence.protocol import CoherenceDirectory
    from repro.obs.tracing import seam_targets
    from repro.sim.engine import Engine
    from repro.sim.process import Process

    slots = {
        "Process._monitor": Process._monitor,
        "Engine._monitor": Engine._monitor,
        "LmpSession._access_monitor": LmpSession._access_monitor,
        "CoherenceDirectory._race_hook": CoherenceDirectory._race_hook,
    }
    # the observability seams: the list Observability.install() fills
    for target, attr in seam_targets():
        slots[f"{target.__name__}.{attr}"] = getattr(target, attr)
    stale = [name for name, value in slots.items() if value is not None]
    if stale:
        raise SystemExit(f"detector seams unexpectedly installed: {', '.join(stale)}")
    if Engine._global_event_sinks:
        raise SystemExit(
            "fresh engine is instrumented: event sinks are installed, so "
            "the timed run would measure sink dispatch"
        )


def load_baseline(path: pathlib.Path, capture: bool) -> dict[str, _t.Any]:
    """The committed baseline; a missing file fails unless *capture*."""
    if path.exists():
        return _t.cast(dict[str, _t.Any], json.loads(path.read_text()))
    if capture:
        return {}
    raise SystemExit(
        f"no committed baseline at {path}; the regression gate cannot run "
        "(record one with --capture)"
    )


def best_of(
    run: _t.Callable[[Now], dict[str, float]], rate: str, rounds: int, now: Now
) -> dict[str, float]:
    """The round with the highest rate.  Load on a shared host only ever
    slows a run down, so the best round is the stable estimate."""
    best: dict[str, float] | None = None
    for _ in range(max(1, rounds)):
        # engines are webs of event<->callback cycles: collect the last
        # round's garbage so its pauses do not land in this one
        gc.collect()
        result = run(now)
        if best is None or result[rate] > best[rate]:
            best = result
    assert best is not None
    return best


def write_json(path: str | pathlib.Path, payload: dict[str, _t.Any]) -> None:
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check_floors(bench: str, configs: list[Config], baseline: dict[str, _t.Any]) -> None:
    """Every configuration has a committed floor in its own rate's unit,
    and every floor a configuration: a floor deleted from the baseline,
    or recorded in another unit, must fail the gate, not drop that
    configuration out of it."""
    floors = baseline.get("results", {})
    names = [name for name, _rate, _run in configs]
    problems = [f"{name}: measured but has no committed floor"
                for name in names if name not in floors]
    problems += [f"{name}: committed floor has no {rate}"
                 for name, rate, _run in configs
                 if name in floors and rate not in floors[name]]
    problems += [f"{name}: committed floor but no such configuration"
                 for name in floors if name not in names]
    if problems:
        raise SystemExit(f"{bench} bench baseline:\n  " + "\n  ".join(problems))


def gate(
    bench: str,
    configs: list[Config],
    results: dict[str, dict[str, float]],
    baseline: dict[str, _t.Any],
) -> None:
    """Fail when any configuration's rate is more than the tolerance
    below its floor."""
    failures = []
    for name, rate, _run in configs:
        floor = baseline["results"][name][rate]
        measured = results[name][rate]
        if measured < floor * (1.0 - REGRESSION_TOLERANCE):
            failures.append(
                f"{name}: {measured:,.0f} {rate} is >"
                f"{REGRESSION_TOLERANCE:.0%} below committed floor {floor:,.0f}"
            )
    if failures:
        raise SystemExit(f"{bench} bench regression:\n  " + "\n  ".join(failures))
    print(f"regression gate: every configuration within {REGRESSION_TOLERANCE:.0%} "
          "of its committed floor — OK")


def smoke(
    bench: str,
    configs: list[Config],
    warm_up: _t.Callable[[], object],
    *,
    baseline_path: pathlib.Path,
    out: str,
    rounds: int,
    capture: bool,
) -> None:
    """Check the floors and seams, time every configuration, write *out*,
    then gate (unless *capture*).  Exits non-zero before measuring
    anything when the baseline is missing or lacks a floor for one of
    *configs*."""
    baseline = load_baseline(baseline_path, capture)
    if not capture:
        check_floors(bench, configs, baseline)
    assert_seams_cold()
    warm_up()  # imports, bytecode and allocator pools out of the timing

    results: dict[str, dict[str, float]] = {}
    with refclock.ReferenceClock() as clock:
        for name, rate, run in configs:
            result = results[name] = best_of(run, rate, rounds, clock.now)
            line = f"{name:20s}: {result[rate]:>16,.0f} {rate}"
            if "ops_per_sec" in result:
                line += f"  ({result['ops_per_sec']:,.0f} ops/s)"
            print(line)
    write_json(out, {"clock": "reference seconds (benchmarks/lmpbench/refclock.py)",
                     "results": results})
    if capture:
        print("regression gate: skipped (--capture)")
    else:
        gate(bench, configs, results, baseline)


def main(doc: str | None, smoke_fn: _t.Callable[..., object], out: str) -> None:
    """The command line both gated benches share."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--smoke", action="store_true", help="measure, write --out, and gate")
    parser.add_argument(
        "--capture",
        action="store_true",
        help="measure and write --out without the gate (recording floors)",
    )
    parser.add_argument("--out", default=out)
    parser.add_argument(
        "--rounds", type=int, default=2, help="timed rounds per configuration; the best one counts"
    )
    args = parser.parse_args()
    if not (args.smoke or args.capture):
        parser.error("pass --smoke (gate) or --capture (record floors)")
    smoke_fn(out=args.out, rounds=args.rounds, capture=args.capture)
