"""Long-running scenario tests (soak tests of the whole stack).

Each scenario drives the full runtime for many simulated epochs the way
an operator's cluster would be driven, asserting the *emergent*
behaviours the paper promises: locality converges, flexibility absorbs
demand shifts, redundancy survives rolling failures — and the
accounting invariants hold throughout.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import LmpSession
from repro.core.failures.recovery import RecoveryManager
from repro.core.failures.replication import ReplicatedBuffer
from repro.core.inspect import describe_pool
from repro.core.runtime import LmpRuntime
from repro.errors import CapacityError
from repro.topology.builder import build_logical
from repro.units import gib, mib
from repro.workloads.kvstore import PooledKVStore, run_ycsb


def assert_conservation(pool) -> None:
    for region in pool.regions.values():
        assert (
            region.private_bytes + region.coherent_bytes + region.shared_bytes
            == region.capacity_bytes
        )
        assert region.shared_used_bytes + region.shared_free_bytes == region.shared_bytes


def test_multi_tenant_convergence():
    """Four tenants with shifting hot sets: the background runtime keeps
    steering data toward its consumers, epoch after epoch."""
    deployment = build_logical("link1", seed=3)
    engine = deployment.engine
    runtime = LmpRuntime(deployment, shared_fraction=0.9)
    sessions = {sid: LmpSession(runtime, sid) for sid in range(4)}

    # tenant data initially allocated by a central loader on server 0
    datasets = {
        sid: sessions[0].alloc(gib(2), name=f"tenant{sid}") for sid in range(4)
    }
    localities = []
    for epoch in range(6):
        # every tenant scans its own dataset twice (hot re-reads)
        for sid, dataset in datasets.items():
            for _ in range(2):
                engine.run(sessions[sid].scan(dataset))
        report = engine.run(runtime.background_epoch())
        assert_conservation(runtime.pool)
        localities.append(
            sum(
                runtime.pool.locality_fraction(sid, dataset)
                for sid, dataset in datasets.items()
            )
            / 4
        )
    # locality converges to (nearly) all-local for every tenant
    assert localities[-1] == pytest.approx(1.0)
    assert localities[-1] >= localities[0]
    # and scans now run at local speed
    bandwidth = engine.run(sessions[3].scan(datasets[3]))
    assert bandwidth == pytest.approx(97.0, rel=0.05)


def test_demand_shift_flexes_regions():
    """A batch tenant's footprint grows while another shrinks; the pool
    absorbs the shift without any physical reconfiguration (§4.5)."""
    deployment = build_logical("link0", seed=4)
    engine = deployment.engine
    runtime = LmpRuntime(deployment, shared_fraction=0.5)
    pool = runtime.pool

    small = [pool.allocate(gib(2), requester_id=sid, name=f"s{sid}") for sid in range(4)]
    assert_conservation(pool)

    # tenant 0's demand quadruples: needs more than its initial share
    big = pool.allocate(gib(30), requester_id=0, name="grown")
    assert_conservation(pool)
    snapshot = describe_pool(pool)
    assert snapshot.pool_utilization > 0.35
    # the regions physically flexed: resize events happened
    assert any(s.resize_events > 0 for s in snapshot.servers)

    # tenant 3 leaves entirely; its server's memory returns to private
    pool.free(small[3])
    shared_before = pool.regions[3].shared_bytes
    report = engine.run(runtime.reclaim_private(3, gib(20)))
    # a reclaim can recover at most the shared region's current size
    assert report.reclaimed_bytes == min(gib(20), shared_before)
    assert report.reclaimed_bytes >= gib(10)
    assert_conservation(pool)

    # the freed capacity is immediately reusable by others
    extra = pool.allocate(gib(8), requester_id=1, name="extra")
    assert extra.size == gib(8)
    assert_conservation(pool)


def test_rolling_failures_with_replication():
    """Two successive host crashes; mirrored data survives both thanks
    to re-replication between failures."""
    deployment = build_logical("link0", seed=5)
    engine = deployment.engine
    runtime = LmpRuntime(deployment)
    pool = runtime.pool
    payload = random.Random(9).randbytes(mib(2))

    mirrored = ReplicatedBuffer(pool, mib(2), copies=2, home_server=0, name="gold")
    engine.run(mirrored.write(0, 0, payload))
    manager = RecoveryManager(pool)
    manager.register(mirrored)

    victims = [mirrored.replica_servers[0], None]
    deployment.server(victims[0]).crash()
    report1 = engine.run(manager.handle_crash(victims[0]))
    assert report1.objects_repaired == 1
    assert engine.run(mirrored.read(2, 0, mib(2))) == payload

    # second wave: kill wherever the first repair landed a replica
    victims[1] = mirrored.replica_servers[0]
    deployment.server(victims[1]).crash()
    report2 = engine.run(manager.handle_crash(victims[1]))
    assert engine.run(mirrored.read(victims_alive(deployment)[0], 0, mib(2))) == payload
    # with two of four servers gone, redundancy may be degraded but the
    # data must never be lost
    assert len(mirrored.live_replicas()) >= 1
    assert_conservation(pool)


def victims_alive(deployment) -> list[int]:
    return [s.server_id for s in deployment.servers if s.alive]


def test_kv_latency_improves_as_store_migrates():
    """A KV store loaded on the wrong server: after the balancer runs,
    the reader's operations get faster."""
    deployment = build_logical("link1", seed=6)
    engine = deployment.engine
    # latency-sensitive tenant: migrate hot objects regardless of bytes
    runtime = LmpRuntime(
        deployment, shared_fraction=0.9, balancer_gain_threshold=1e-6
    )
    pool = runtime.pool
    store = PooledKVStore(pool, capacity_bytes=mib(32), home_server=3, name="kv")

    cold = run_ycsb(store, server_id=0, rng=random.Random(1), operations=40, key_count=16)
    assert cold.local_ratio == 0.0
    # the reads above fed the profiler through access planning; run epochs
    for _ in range(2):
        run_ycsb(store, server_id=0, rng=random.Random(2), operations=40, key_count=16)
        engine.run(runtime.background_epoch())

    warm = run_ycsb(store, server_id=0, rng=random.Random(3), operations=40, key_count=16)
    assert warm.local_ratio == 1.0
    assert warm.mean_latency_ns < cold.mean_latency_ns


def test_pool_full_lifecycle_accounting():
    """Churn allocations for many rounds: capacity accounting never
    drifts and ends exactly where it started."""
    deployment = build_logical("link0", seed=7)
    pool = LmpRuntime(deployment).pool
    rng = random.Random(13)
    initial_free = pool.pooled_free_bytes
    live = []
    for round_no in range(60):
        if live and rng.random() < 0.45:
            pool.free(live.pop(rng.randrange(len(live))))
        else:
            size = rng.choice([mib(256), gib(1), gib(2)])
            try:
                live.append(pool.allocate(size, requester_id=rng.randrange(4)))
            except CapacityError:
                assert pool.pooled_free_bytes < size + gib(2)
        assert_conservation(pool)
    for buffer in live:
        pool.free(buffer)
    assert pool.pooled_free_bytes == initial_free
