"""C1 — the multi-tenant rack control plane's zero-cost seams.

The CI smoke job::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

verifies that new engines are built cold (no observer, monitor or
event sink, checked by ``_harness.assert_seams_cold``) and prints
bare-engine and driver wall-clock numbers, so a regression that makes
the instrumentation non-zero-cost shows up as a step change in the
logged throughput.  The same driver run on a rack built inside
``Observability.activated()`` must record request spans.
"""

from __future__ import annotations

from _harness import assert_seams_cold

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.runtime import LmpRuntime
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


# --- smoke (CI: zero-cost instrumentation guard) --------------------------------


def _bare_engine(events: int) -> None:
    """Pure event-loop churn: the hottest path the monitor seams touch."""
    from repro.sim.engine import Engine

    engine = Engine(seed=3)

    def ticker():
        for _ in range(events):
            yield engine.timeout(1.0)

    engine.process(ticker(), name="ticker")
    engine.run()


def smoke(events: int = 100_000, tenants: int = 8) -> None:
    import time

    assert_seams_cold()
    started = time.perf_counter()
    _bare_engine(events)
    bare = time.perf_counter() - started
    started = time.perf_counter()
    report = _drive(tenants)
    drive = time.perf_counter() - started

    # observability overhead check: the same driver run on a rack built
    # with repro.obs installed vs. the cold baseline just timed
    from repro.obs import Observability

    obs = Observability()
    with obs.activated():
        started = time.perf_counter()
        obs_report = _drive(tenants)
        with_obs = time.perf_counter() - started
    assert_seams_cold()  # activated() must leave later engines cold

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
    if not any(span.component == "request" for span in obs.recorder.spans):
        raise SystemExit("observability recorded no request span")
    if obs_report.total_ops != report.total_ops:
        raise SystemExit(
            "observability changed the simulation: "
            f"{obs_report.total_ops} ops with obs vs {report.total_ops} without"
        )
    print("new engines are built cold; the observed run recorded spans — OK")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke: seam check + wall-clock numbers",
    )
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--tenants", type=int, default=8)
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke")
    smoke(events=cli_args.events, tenants=cli_args.tenants)
