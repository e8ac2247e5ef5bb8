"""S1 — the population-scale open-loop machinery under load.

Measures what PR-level changes most easily regress at 10k tenants:

* ``construct_10k`` — driver + traffic construction (tenant
  registration must stay O(1) amortized: 10k tenants, well under a
  second),
* ``open_loop_slice`` — a reduced open-loop replay through the real
  admission front door (arrivals/s is the rate the experiment's CI
  smoke time depends on),
* ``elastic_slice`` — the same replay with the re-flex autoscaler
  ticking (the controller must stay a small constant on top).

Also runnable directly (no pytest-benchmark needed) as the CI smoke
job::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke

which first asserts every detector/observability seam (including
``ScaleDriver._obs``) defaults to ``None`` and that a fresh engine
takes the bare dispatch fast path, then writes ``BENCH_scale.json``
and exits non-zero if any configuration's rate drops more than 20%
below the committed floors in
``benchmarks/baselines/BENCH_scale_baseline.json`` (machine-speed
scaled by ``bench_engine.py``'s calibration probe).  A missing
baseline file is an error before anything is measured, not a skipped
gate.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
import typing as _t

import pytest
from bench_engine import _calibrate

from repro.cluster.manager import PoolManager
from repro.core.runtime import LmpRuntime
from repro.mem.layout import PageGeometry
from repro.scale import (
    AutoscalerConfig,
    BurstModel,
    DiurnalCycle,
    FlashCrowd,
    OpenLoopTraffic,
    ReflexAutoscaler,
    ScaleDriver,
    TrafficSpec,
)
from repro.topology.builder import build_logical
from repro.units import kib, mib, us

_BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_scale_baseline.json"
)

#: allowed rate drop vs. the committed baseline before CI fails
REGRESSION_TOLERANCE = 0.20


def _manager(server_count: int = 4) -> PoolManager:
    deployment = build_logical(
        "link0", server_count=server_count, server_dram_bytes=mib(8)
    )
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        shared_fraction=0.5,
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    manager = PoolManager(runtime, policy="capacity-balanced")
    for region in manager.pool.regions.values():
        region.flex_on_demand = False
    return manager


def _spec(tenants: int, duration_ns: float, rate_ops_ns: float) -> TrafficSpec:
    return TrafficSpec(
        tenants=tenants,
        base_rate_ops_s=rate_ops_ns * 1e9,
        duration_ns=duration_ns,
        diurnal=DiurnalCycle(period_ns=duration_ns / 2.0, amplitude=0.4),
        bursts=BurstModel(multiplier=3.0, mean_on_ns=us(40), mean_off_ns=us(160)),
        flash_crowds=(
            FlashCrowd(
                start_ns=0.4 * duration_ns,
                duration_ns=0.2 * duration_ns,
                multiplier=6.0,
                first_slot=int(0.6 * tenants),
                last_slot=int(0.7 * tenants),
                focus=0.8,
            ),
        ),
        alloc_bytes=kib(64),
        hold_mean_ns=us(80),
        access_fraction=0.25,
        access_bytes=kib(4),
    )


# -- configurations ----------------------------------------------------------


def construct_10k() -> dict[str, float]:
    """10k-tenant driver construction: registrations/s."""
    manager = _manager()
    spec = _spec(10_000, us(100), 0.0001)
    traffic = OpenLoopTraffic(spec, manager.engine.rng)
    started = time.perf_counter()
    driver = ScaleDriver(manager, traffic, quota_bytes=mib(1))
    secs = time.perf_counter() - started
    assert len(driver.granted_by_slot) == 10_000
    return {"events_per_sec": round(10_000 / secs, 1), "seconds": round(secs, 4)}


def open_loop_slice(
    tenants: int = 10_000, autoscale: bool = False
) -> dict[str, float]:
    """A reduced open-loop replay; arrivals dispatched per second."""
    manager = _manager()
    spec = _spec(tenants, us(400), 0.9e-3)
    driver = ScaleDriver(
        manager, OpenLoopTraffic(spec, manager.engine.rng), quota_bytes=mib(1)
    )
    procs = driver.processes()
    scaler = None
    if autoscale:
        scaler = ReflexAutoscaler(
            manager,
            AutoscalerConfig(period_ns=us(50), min_shared_bytes=mib(4)),
        )
        procs.append(scaler.run(spec.duration_ns + driver.drain_grace_ns))
    started = time.perf_counter()
    manager.engine.run(manager.engine.all_of(procs))
    secs = time.perf_counter() - started
    assert driver.arrivals_seen > 0
    result = {
        "events_per_sec": round(driver.arrivals_seen / secs, 1),
        "arrivals": float(driver.arrivals_seen),
        "seconds": round(secs, 4),
    }
    if scaler is not None:
        result["reflex_actions"] = float(len(scaler.actions))
    return result


def _configs() -> list[tuple[str, _t.Callable[[], dict[str, float]]]]:
    return [
        ("construct_10k", construct_10k),
        ("open_loop_slice", lambda: open_loop_slice(10_000, autoscale=False)),
        ("elastic_slice", lambda: open_loop_slice(10_000, autoscale=True)),
    ]


# -- pytest-benchmark mode ----------------------------------------------------


@pytest.mark.benchmark(group="scale")
@pytest.mark.parametrize("tenants", [2_000, 10_000])
def test_s1_open_loop_slice(benchmark, tenants):
    result = benchmark.pedantic(
        open_loop_slice, args=(tenants,), rounds=1, iterations=1
    )
    assert result["arrivals"] > 0


@pytest.mark.benchmark(group="scale")
def test_s1_experiment(run_once, record_result):
    from repro.experiments import scale as scale_experiment

    result = run_once(scale_experiment.run)  # the full default 10k-tenant S1
    record_result("scale", result.render())
    assert result.elastic_wins_flash


# -- standalone smoke mode (CI: BENCH_scale.json + regression gate) -----------


def _assert_seams_cold() -> None:
    """Every monitor/observability seam must default to None, and a
    fresh engine must take the bare dispatch fast path — otherwise the
    rates below measure sink dispatch, not the population machinery."""
    from repro.cluster.driver import ClusterDriver
    from repro.core.api import LmpSession
    from repro.fabric.transport import MemoryTransport
    from repro.sim.engine import Engine
    from repro.sim.process import Process

    slots = {
        "Process._monitor": Process._monitor,
        "Engine._monitor": Engine._monitor,
        "Process._obs": Process._obs,
        "LmpSession._obs": LmpSession._obs,
        "MemoryTransport._obs": MemoryTransport._obs,
        "PoolManager._obs": PoolManager._obs,
        "ClusterDriver._obs": ClusterDriver._obs,
        "ScaleDriver._obs": ScaleDriver._obs,
    }
    stale = [name for name, value in slots.items() if value is not None]
    if stale:
        raise SystemExit(f"detector seams unexpectedly installed: {', '.join(stale)}")
    probe = Engine()
    if probe._event_sinks or Engine._global_event_sinks:
        raise SystemExit(
            "fresh engine is instrumented: event sinks are installed, so "
            "the bare dispatch fast path will not engage"
        )


def smoke(out: str = "BENCH_scale.json", rounds: int = 2) -> None:
    if not _BASELINE_PATH.exists():
        raise SystemExit(
            f"scale bench: no committed baseline at {_BASELINE_PATH}; "
            "the regression gate cannot run"
        )
    baseline: dict[str, _t.Any] = json.loads(_BASELINE_PATH.read_text())
    _assert_seams_cold()
    # warm-up: imports, bytecode, allocator pools
    open_loop_slice(500)

    results: dict[str, dict[str, float]] = {}
    for name, run in _configs():
        best: dict[str, float] | None = None
        for _ in range(max(1, rounds)):
            gc.collect()
            result = run()
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        assert best is not None
        results[name] = best
        print(f"{name:20s}: {best['events_per_sec']:>12,.0f} /s "
              f"({best['seconds']:.3f}s)")

    calibration = _calibrate()
    path = pathlib.Path(out)
    path.write_text(
        json.dumps(
            {"results": results, "calibration_ops_per_sec": round(calibration, 1)},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {path}")

    base_cal = baseline.get("calibration_ops_per_sec", 0.0)
    scale = min(1.0, calibration / base_cal) if base_cal else 1.0
    if scale < 1.0:
        print(
            f"machine calibration: {calibration:,.0f} probe ops/s vs "
            f"{base_cal:,.0f} at baseline capture — floors scaled x{scale:.2f}"
        )
    failures: list[str] = []
    for name, committed in baseline.get("results", {}).items():
        current = results.get(name)
        if current is None:
            failures.append(f"{name}: configuration missing from this run")
            continue
        floor = committed["events_per_sec"] * (1.0 - REGRESSION_TOLERANCE) * scale
        if current["events_per_sec"] < floor:
            failures.append(
                f"{name}: {current['events_per_sec']:,.0f}/s is >"
                f"{REGRESSION_TOLERANCE:.0%} below committed baseline "
                f"{committed['events_per_sec']:,.0f}"
            )
    if failures:
        raise SystemExit("scale bench regression:\n  " + "\n  ".join(failures))
    print(f"regression gate: all configurations within "
          f"{REGRESSION_TOLERANCE:.0%} of committed baseline — OK")
    print("detector seams: all None (zero-cost path) — OK")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast no-pytest smoke: seam check + BENCH_scale.json "
        "+ regression gate",
    )
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--rounds", type=int, default=2)
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke (benchmark mode runs under pytest-benchmark)")
    smoke(out=cli_args.out, rounds=cli_args.rounds)
