#!/usr/bin/env python3
"""A tour of ``repro.obs``: spans, metrics, and the exporters.

One multi-tenant cluster run with observability installed yields the
whole story: every tenant request becomes the root of a causal span
tree (request -> session access -> coherence transaction -> fabric hop
-> DRAM service), the metrics registry federates the control plane's
counters, and the exporters write a Perfetto-loadable trace plus a
Prometheus snapshot.  The rack is built inside ``obs.activated()``:
an engine is observed only when it is built while obs is installed.
The tour exits non-zero if it recorded no request span.

    $ python examples/observability_tour.py
    $ # then open obs-tour/trace.json in https://ui.perfetto.dev
"""

import pathlib

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.runtime import LmpRuntime
from repro.mem.layout import PageGeometry
from repro.obs import (
    Observability,
    latency_breakdown,
    prometheus_text,
    render_breakdown,
)
from repro.topology.builder import build_logical
from repro.units import kib, mib

#: where the dump lands; the test harness sets this to None to skip I/O
OUT_DIR = pathlib.Path("obs-tour")

TENANTS = 6
OPS_PER_TENANT = 20


def build_rack() -> tuple[ClusterDriver, list[TenantSpec]]:
    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(32))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    manager = PoolManager(runtime, policy="capacity-balanced")
    # lock_fraction > 0 wraps some data ops in a shared spinlock, so the
    # trace shows coherence transactions nested under tenant requests
    driver = ClusterDriver(
        manager,
        mix=WorkloadMix(alloc_bytes=kib(192), access_bytes=kib(4), lock_fraction=0.3),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:02d}", home_server=i % 4, quota_bytes=mib(8))
        for i in range(TENANTS)
    ]
    return driver, specs


def main() -> None:
    print("== run the rack with observability installed ==\n")
    obs = Observability()
    with obs.activated():
        # built inside the block, so the rack's engine takes the observer
        driver, specs = build_rack()
        report = driver.run(specs, OPS_PER_TENANT)
    if not any(span.component == "request" for span in obs.recorder.spans):
        raise SystemExit("observability recorded no request span")
    print(
        f"{report.total_ops} tenant ops, fairness {report.fairness:.3f}, "
        f"{len(obs.recorder.spans)} spans recorded"
    )

    print("\n== where did each request spend its time? ==\n")
    print(render_breakdown(latency_breakdown(obs.recorder.spans)))

    print("\n== a slice of the Prometheus snapshot ==\n")
    wanted = ("repro_requests_total", "repro_cluster_fairness", "repro_spans_total")
    for line in prometheus_text(obs.metrics).splitlines():
        if line.startswith(wanted):
            print(line)

    if OUT_DIR is not None:
        paths = obs.dump(OUT_DIR)
        print("\n== dumped ==\n")
        for path in paths:
            print(f"  {path}")
        print("\nopen trace.json in https://ui.perfetto.dev to browse the spans")


if __name__ == "__main__":
    main()
