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

The CI scale-bench job::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke

runs them through ``_harness.smoke``: it asserts that a new engine
would be built with no observer, monitor or event sink, then writes
``BENCH_scale.json`` and exits non-zero if the committed
baseline ``benchmarks/baselines/BENCH_scale_baseline.json`` is missing,
lacks a floor for any configuration, or any rate (read on the reference
clock) drops more than 20% below its floor.  ``--capture`` measures
and writes the JSON without the gate.
"""

from __future__ import annotations

import pathlib
import time

import _harness
from _harness import assert_seams_cold as _assert_seams_cold  # noqa: F401 (lmpbench's name)

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


def construct_10k(now: _harness.Now = time.perf_counter) -> dict[str, float]:
    """10k-tenant driver construction: registrations/s."""
    manager = _manager()
    spec = _spec(10_000, us(100), 0.0001)
    traffic = OpenLoopTraffic(spec, manager.engine.rng)
    started = now()
    driver = ScaleDriver(manager, traffic, quota_bytes=mib(1))
    secs = now() - started
    assert len(driver.manager.tenants) == 10_000
    return {"events_per_sec": round(10_000 / secs, 1), "seconds": round(secs, 4)}


def open_loop_slice(
    tenants: int = 10_000, autoscale: bool = False, now: _harness.Now = time.perf_counter
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
    started = now()
    manager.engine.run(manager.engine.all_of(procs))
    secs = now() - started
    assert driver.arrivals_seen > 0
    result = {
        "events_per_sec": round(driver.arrivals_seen / secs, 1),
        "arrivals": float(driver.arrivals_seen),
        "seconds": round(secs, 4),
    }
    if scaler is not None:
        result["reflex_actions"] = float(len(scaler.actions))
    return result


def _configs() -> list[_harness.Config]:
    return [
        ("construct_10k", "events_per_sec", construct_10k),
        ("open_loop_slice", "events_per_sec",
         lambda now: open_loop_slice(10_000, autoscale=False, now=now)),
        ("elastic_slice", "events_per_sec",
         lambda now: open_loop_slice(10_000, autoscale=True, now=now)),
    ]


def smoke(out: str = "BENCH_scale.json", rounds: int = 2, capture: bool = False) -> None:
    _harness.smoke("scale", _configs(), lambda: open_loop_slice(500),
                   baseline_path=_BASELINE_PATH, out=out, rounds=rounds, capture=capture)


if __name__ == "__main__":
    _harness.main(__doc__, smoke, "BENCH_scale.json")
