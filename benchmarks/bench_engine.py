"""E2 — DES core throughput: the engine's events/sec trajectory.

Six workloads:

* ``event_churn`` — callback chains rescheduling bare timeouts: the
  dispatch loop and timeout pool with nothing else in the way.
* ``timeout_storm`` — hundreds of generator processes yielding
  timeouts: adds process resume/suspend to every event.
* ``cluster_slice`` — a 32-tenant data-heavy run of the real cluster
  driver on the paper's logical rack: the end-to-end number ROADMAP
  item 1 (10k-tenant serving) actually gates on.
* ``cluster_dense`` — the bandwidth-saturated steady state: 1024
  tenants issuing 256 KiB reads and writes (30% writes) through the
  shared fabric, keeping ~1000 flows in flight.  This is the regime the
  transition-driven fluid solver exists for — the seed engine pays
  O(#flows) per event here, the solver pays nothing between rate
  changes.  The flows form one group per server's DRAM channel, and no
  group is capped, so a transition re-solves only the one group it
  touches.  The driver's data ops are timed accesses: they pay the
  transport's latency and fluid transfer but move no host bytes.
* ``figure_stream`` — the paper's 14-core vector sum on one
  Physical-cache pool (Figure 3's 24 GB vector, link0): every core
  stream is a flow whose memory-level-parallelism cap depends on the
  load, so this gates the solver's load-capped (path, cap) groups, the
  regime Figures 2–5 live in.  Its rate is *simulated bytes* per
  second, not events per second: the workload's event count is a
  property of the model (one flow per stream segment), and a faster
  model with fewer events must not read as a slower one.
* ``alloc_free`` — allocate and free a 64 GiB buffer on the paper's
  Logical pool at default geometry (2 MiB pages, 256 MiB extents): the
  page tables, frame pools and placement that every grant and lease
  expiry runs, with no engine event in between.  Its rate is pages
  allocated and freed per second.

The CI engine-bench job::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke

runs them through ``_harness.smoke``: it writes ``BENCH_engine.json``
and exits non-zero if the committed baseline
``benchmarks/baselines/BENCH_engine_baseline.json`` is missing, lacks a
floor for any configuration, or any configuration's gated rate (read on
the reference clock) drops more than 20% below its floor.
``--capture`` measures and writes the JSON without the gate, which is
how the floors are recorded.
"""

from __future__ import annotations

import pathlib
import time
import typing as _t

import _harness

from repro.sim.engine import Engine

#: committed baseline: one rate floor per configuration
_BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_engine_baseline.json"


# -- workload 1: event churn ------------------------------------------------


def event_churn(
    total_events: int = 200_000, now: _harness.Now = time.perf_counter
) -> tuple[int, float]:
    """Callback chains rescheduling timeouts; no processes, no fluid."""
    eng = Engine(seed=1)
    chains = 64
    per_chain = total_events // chains

    def start_chain(i: int) -> None:
        rng = eng.rng.stream(f"churn.{i}")
        delays = [rng.random() * 100.0 for _ in range(256)]
        left = [per_chain]

        def fire(_ev: _t.Any) -> None:
            n = left[0]
            if n:
                left[0] = n - 1
                eng.timeout(delays[n & 255]).callbacks.append(fire)

        fire(None)

    for i in range(chains):
        start_chain(i)
    started = now()
    eng.run()
    elapsed = now() - started
    return eng.events_processed, elapsed


# -- workload 2: timeout storm ----------------------------------------------


def timeout_storm(
    procs: int = 200, ops: int = 500, now: _harness.Now = time.perf_counter
) -> tuple[int, float]:
    """Generator processes yielding timeouts: resume/suspend on every event."""
    eng = Engine(seed=2)

    def body(delays: list[float]):
        for i in range(ops):
            yield eng.timeout(delays[i & 255])

    for p in range(procs):
        rng = eng.rng.stream(f"storm.{p}")
        delays = [rng.random() * 50.0 + 1.0 for _ in range(256)]
        eng.process(body(delays), name=f"storm.{p}")
    started = now()
    eng.run()
    elapsed = now() - started
    return eng.events_processed, elapsed


# -- workload 3: cluster-driver slice ---------------------------------------


def cluster_slice(
    tenants: int = 32, ops_per_tenant: int = 150, now: _harness.Now = time.perf_counter
) -> tuple[int, float, int]:
    """The real multi-tenant driver on the paper's logical rack,
    data-heavy mix (the regime ROADMAP's 10k-tenant item lives in).

    Returns (events, wall_seconds, completed_ops)."""
    from repro.cluster.driver import ClusterDriver, WorkloadMix
    from repro.cluster.manager import PoolManager
    from repro.cluster.tenants import TenantSpec
    from repro.core.runtime import LmpRuntime
    from repro.mem.layout import PageGeometry
    from repro.topology.builder import build_logical
    from repro.units import kib, mib

    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(32))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="capacity-balanced"),
        mix=WorkloadMix(
            alloc_fraction=0.05,
            free_fraction=0.02,
            alloc_bytes=kib(192),
            access_bytes=kib(4),
        ),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:02d}", home_server=i % 4, quota_bytes=mib(8))
        for i in range(tenants)
    ]
    started = now()
    report = driver.run(specs, ops_per_tenant)
    elapsed = now() - started
    return deployment.engine.events_processed, elapsed, report.total_ops


def cluster_dense(
    tenants: int = 1024, ops_per_tenant: int = 12, now: _harness.Now = time.perf_counter
) -> tuple[int, float, int]:
    """The bandwidth-saturated steady state: every tenant keeps a
    256 KiB read in flight, so ~#tenants flows share the fabric at all
    times.  Large pages make each access a single long-lived flow, and
    the rack DRAM is sized so the aggregate working set fits (an
    over-committed rack deadlocks admission on the seed engine too).

    Returns (events, wall_seconds, completed_ops)."""
    from repro.cluster.driver import ClusterDriver, WorkloadMix
    from repro.cluster.manager import PoolManager
    from repro.cluster.tenants import TenantSpec
    from repro.core.runtime import LmpRuntime
    from repro.mem.layout import PageGeometry
    from repro.topology.builder import build_logical
    from repro.units import kib, mib

    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(512))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(256), extent_bytes=mib(1)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="capacity-balanced"),
        mix=WorkloadMix(
            alloc_fraction=0.05,
            free_fraction=0.02,
            alloc_bytes=kib(512),
            access_bytes=kib(256),
        ),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:04d}", home_server=i % 4, quota_bytes=mib(1))
        for i in range(tenants)
    ]
    started = now()
    report = driver.run(specs, ops_per_tenant)
    elapsed = now() - started
    return deployment.engine.events_processed, elapsed, report.total_ops


# -- workload 5: capped figure stream -----------------------------------------

#: vector-sum repetitions per timed round: one is about 1 ms and 104
#: events on the reference clock, so a round lasts about 0.2 s, long
#: enough that its rate is steady
FIGURE_STREAM_REPETITIONS = 200



def figure_stream(
    repetitions: int = 10, now: _harness.Now = time.perf_counter
) -> tuple[int, float, int]:
    """Figure 3's vector sum on a Physical-cache pool over link0: 14
    cores, each streaming its shard under a load-dependent MLP cap.

    Returns (events, wall_seconds, simulated_bytes)."""
    from repro.core.pool import PhysicalMemoryPool
    from repro.experiments.figures import FIGURE_SIZES
    from repro.topology.builder import build_physical
    from repro.units import gib
    from repro.workloads.vector_sum import run_vector_sum

    deployment = build_physical("link0", cache=True)
    pool = PhysicalMemoryPool(deployment)
    vector_bytes = gib(FIGURE_SIZES["figure3"])
    started = now()
    run_vector_sum(pool, vector_bytes, repetitions=repetitions)
    elapsed = now() - started
    return deployment.engine.events_processed, elapsed, vector_bytes * repetitions


# -- workload 6: the pool's allocation path -------------------------------------


def alloc_free(rounds: int = 10, now: _harness.Now = time.perf_counter) -> tuple[int, float, int]:
    """Allocate and free a 64 GiB Logical-pool buffer *rounds* times.

    Returns (events, wall_seconds, pages)."""
    from repro.core.pool import LogicalMemoryPool
    from repro.topology.builder import build_logical
    from repro.units import gib

    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment)
    size = gib(64)
    started = now()
    for _ in range(rounds):
        pool.free(pool.allocate(size, requester_id=0))
    elapsed = now() - started
    pages = rounds * size // pool.geometry.page_bytes
    return deployment.engine.events_processed, elapsed, pages


# -- the gate ------------------------------------------------------------------


def _configs() -> list[_harness.Config]:
    def timed(
        workload: _t.Callable[[_harness.Now], tuple], extra: str = "ops"
    ) -> _t.Callable[[_harness.Now], dict]:
        """*workload* returns (events, seconds[, count]); *count* is
        reported as *extra* and ``<extra>_per_sec``."""
        def run(now: _harness.Now) -> dict[str, float]:
            events, secs, *count = workload(now)
            result = {"events": events, "seconds": round(secs, 4),
                      "events_per_sec": round(events / secs, 1)}
            if count:
                result[extra] = count[0]
                result[f"{extra}_per_sec"] = round(count[0] / secs, 1)
            return result
        return run

    return [
        ("event_churn", "events_per_sec", timed(lambda now: event_churn(200_000, now))),
        ("timeout_storm", "events_per_sec", timed(lambda now: timeout_storm(200, 500, now))),
        ("cluster_slice", "events_per_sec", timed(lambda now: cluster_slice(32, 150, now))),
        ("cluster_dense", "events_per_sec", timed(lambda now: cluster_dense(1024, 12, now))),
        ("figure_stream", "bytes_per_sec",
         timed(lambda now: figure_stream(FIGURE_STREAM_REPETITIONS, now), extra="bytes")),
        ("alloc_free", "pages_per_sec", timed(lambda now: alloc_free(10, now), extra="pages")),
    ]


def _warm_up() -> None:
    event_churn(20_000)
    timeout_storm(20, 50)
    cluster_slice(4, 20)
    cluster_dense(64, 4)
    figure_stream(1)
    alloc_free(1)


def smoke(out: str = "BENCH_engine.json", rounds: int = 2, capture: bool = False) -> None:
    _harness.smoke("engine", _configs(), _warm_up, baseline_path=_BASELINE_PATH,
                   out=out, rounds=rounds, capture=capture)


if __name__ == "__main__":
    _harness.main(__doc__, smoke, "BENCH_engine.json")
