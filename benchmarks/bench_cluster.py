"""C1 — the multi-tenant rack control plane under load.

Measures the workload driver's wall-clock cost at 1, 8, and 32 tenants
(the control plane is pure Python, so this is the practical scaling
limit check), and records the full experiment's tables for
EXPERIMENTS.md.

Also runnable directly (no pytest-benchmark needed) as the CI smoke
job::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

which verifies the race-detector seams are genuinely uninstalled (every
hook slot is ``None``) and prints bare-engine and driver wall-clock
numbers, so a regression that makes the instrumentation non-zero-cost
shows up as a step change in the logged throughput.
"""

from __future__ import annotations

import pytest

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.runtime import LmpRuntime
from repro.experiments import cluster
from repro.mem.layout import PageGeometry
from repro.topology.builder import build_logical
from repro.units import kib, mib


def _drive(tenant_count: int, ops_per_tenant: int = 30):
    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(32))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="capacity-balanced"),
        mix=WorkloadMix(alloc_bytes=kib(192), access_bytes=kib(4)),
    )
    specs = [
        TenantSpec(
            tenant_id=f"t{i:02d}", home_server=i % 4, quota_bytes=mib(8)
        )
        for i in range(tenant_count)
    ]
    return driver.run(specs, ops_per_tenant)


@pytest.mark.benchmark(group="cluster")
@pytest.mark.parametrize("tenants", [1, 8, 32])
def test_c1_driver_scaling(benchmark, tenants):
    report = benchmark.pedantic(_drive, args=(tenants,), rounds=1, iterations=1)
    assert report.total_ops == tenants * 30
    assert report.leases_leaked == 0
    assert report.fairness >= 0.8


@pytest.mark.benchmark(group="cluster")
def test_c1_experiment(run_once, record_result):
    result = run_once(cluster.run)
    record_result("cluster", result.render())
    assert all(p.fairness >= 0.8 for p in result.policies)
    assert any(s.rejected > 0 for s in result.sweep)
    assert result.reclaim.leases_leaked == 0
    assert result.reclaim.revoked_bytes_outstanding == 0


# --- standalone smoke mode (CI: zero-cost instrumentation guard) ----------------


def _bare_engine(events: int) -> None:
    """Pure event-loop churn: the hottest path the monitor seams touch."""
    from repro.sim.engine import Engine

    engine = Engine(seed=3)

    def ticker():
        for _ in range(events):
            yield engine.timeout(1.0)

    engine.process(ticker(), name="ticker")
    engine.run()


def _assert_detectors_uninstalled() -> None:
    from repro.cluster.driver import ClusterDriver as _Driver
    from repro.cluster.manager import PoolManager as _Manager
    from repro.core.api import LmpSession
    from repro.core.coherence.protocol import CoherenceDirectory
    from repro.core.migration import LocalityBalancer
    from repro.fabric.transport import MemoryTransport
    from repro.hw.cpu import Core
    from repro.mem.arena.gauntlet import Gauntlet
    from repro.sim.engine import Engine
    from repro.sim.process import Process
    from repro.workloads import vector_sum

    slots = {
        "Process._monitor": Process._monitor,
        "Engine._monitor": Engine._monitor,
        "LmpSession._access_monitor": LmpSession._access_monitor,
        "CoherenceDirectory._race_hook": CoherenceDirectory._race_hook,
        # observability seams (repro.obs) — all must default to None
        "Process._obs": Process._obs,
        "LmpSession._obs": LmpSession._obs,
        "CoherenceDirectory._obs": CoherenceDirectory._obs,
        "MemoryTransport._obs": MemoryTransport._obs,
        "Core._obs": Core._obs,
        "LocalityBalancer._obs": LocalityBalancer._obs,
        "PoolManager._obs": _Manager._obs,
        "ClusterDriver._obs": _Driver._obs,
        "Gauntlet._obs": Gauntlet._obs,
        "workloads.vector_sum._obs": vector_sum._obs,
    }
    stale = [name for name, value in slots.items() if value is not None]
    if stale:
        raise SystemExit(f"detector seams unexpectedly installed: {', '.join(stale)}")

    # Dispatch fast-path seam: with every monitor and sink above clean, a
    # fresh engine must take the bare specialized loop, not the
    # instrumented one — otherwise the numbers below measure sink
    # dispatch, not the engine.
    probe = Engine()
    if probe._event_sinks or Engine._global_event_sinks:
        raise SystemExit(
            "fresh engine is instrumented: event sinks are installed, so "
            "the bare dispatch fast path will not engage"
        )


def smoke(events: int = 100_000, tenants: int = 8) -> None:
    import time

    _assert_detectors_uninstalled()
    started = time.perf_counter()
    _bare_engine(events)
    bare = time.perf_counter() - started
    started = time.perf_counter()
    report = _drive(tenants)
    drive = time.perf_counter() - started

    # observability overhead check: same driver run with repro.obs
    # installed vs. the uninstalled (seams = None) baseline just timed
    from repro.obs import Observability

    obs = Observability()
    with obs.activated():
        started = time.perf_counter()
        obs_report = _drive(tenants)
        with_obs = time.perf_counter() - started
    _assert_detectors_uninstalled()  # activated() must restore every seam

    print(
        f"bare engine: {events} events in {bare:.3f}s "
        f"({events / bare / 1e3:.0f}k events/s)"
    )
    print(
        f"driver ({tenants} tenants x 30 ops): {drive:.3f}s, "
        f"{report.total_ops} ops, fairness {report.fairness:.2f}"
    )
    print(
        f"driver with repro.obs installed: {with_obs:.3f}s "
        f"({with_obs / drive:.2f}x uninstalled, {len(obs.recorder.spans)} spans)"
    )
    if obs_report.total_ops != report.total_ops:
        raise SystemExit(
            "observability changed the simulation: "
            f"{obs_report.total_ops} ops with obs vs {report.total_ops} without"
        )
    print("detector seams: all None (zero-cost path) — OK")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast no-pytest smoke: seam check + wall-clock numbers",
    )
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--tenants", type=int, default=8)
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke (benchmark mode runs under pytest-benchmark)")
    smoke(events=cli_args.events, tenants=cli_args.tenants)
