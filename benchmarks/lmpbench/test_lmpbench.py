"""lmpbench's own tests, at ``--quick`` size (``pytest benchmarks/lmpbench``).

Each workload runs three times in fresh processes: timed, timed again
with the same seed, and traced.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refclock  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv: str) -> tuple[dict, dict[str, tuple[float, str]]]:
    """The final JSON line and every ``workload metric value unit`` line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.1", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        _workload, metric, value, unit = line.split()
        printed[metric] = (float(value), unit)
    return json.loads(lines[-1]), printed


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request: pytest.FixtureRequest) -> dict[str, tuple[dict, dict]]:
    name = request.param
    return {
        "timed": _run("--workload", name),
        "again": _run("--workload", name),
        "traced": _run("--workload", name, "--trace", "1"),
    }


def _simulated(printed: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {metric: printed[metric][0] for metric in workloads.SIMULATED}


def test_every_listed_metric_is_emitted_with_its_unit(runs):
    for kind, (result, printed) in (("end_to_end", runs["timed"]), ("per_layer", runs["traced"])):
        listed = {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == listed
        assert {name: printed[name][1] for name in listed} == listed
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_same_seed_gives_identical_simulated_metrics(runs):
    timed = _simulated(runs["timed"][1])
    assert _simulated(runs["again"][1]) == timed
    assert _simulated(runs["traced"][1]) == timed


def test_seed_changes_flash_arrivals_but_not_the_offered_load():
    def arrivals(seed: int) -> list[tuple]:
        flash = workloads.Flash(seed, quick=True, elastic=False)
        traffic = flash.traffic(flash.trace_seeds()[0])
        return [(a.when_ns, a.slot, a.hold_ns, a.access, a.write) for a in traffic.arrivals()]

    seed0, seed1 = arrivals(0), arrivals(1)
    assert seed0 == arrivals(0)
    assert seed0 != seed1
    assert [a[0] for a in seed0] == [a[0] for a in seed1]


def test_reference_clock_skips_a_tick_that_lands_during_a_sample():
    clock = refclock.ReferenceClock()
    loop = clock._loop

    def stalled() -> None:
        loop()
        clock._sample()  # the next SIGALRM, delivered while this one runs

    clock._loop = stalled  # type: ignore[method-assign]
    clock._sample()
    assert len(clock.speeds) == 1
