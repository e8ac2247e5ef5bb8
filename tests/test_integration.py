"""End-to-end integration: a day in the life of a logical memory pool.

One simulated rack runs, in order: multi-tenant allocation, cross-server
sharing, hot-data migration driven by the background runtime, dynamic
region resizing, a server crash with protected and unprotected data, and
recovery — asserting the user-visible invariants at each step.
"""

from __future__ import annotations

import pytest

from repro.core.api import LmpSession
from repro.core.failures.recovery import RecoveryManager
from repro.core.failures.replication import ReplicatedBuffer
from repro.core.runtime import LmpRuntime
from repro.errors import MemoryFailureError
from repro.topology.builder import build_logical
from repro.units import gib, mib
from repro.workloads.kvstore import PooledKVStore


def test_day_in_the_life():
    deployment = build_logical("link1", seed=11)
    engine = deployment.engine
    runtime = LmpRuntime(deployment, shared_fraction=0.95)
    pool = runtime.pool

    # --- act 1: two tenants allocate and share ------------------------------
    analytics = LmpSession(runtime, 0)
    serving = LmpSession(runtime, 2)

    dataset = analytics.alloc(gib(4), name="dataset")
    engine.run(analytics.write(dataset, 0, b"\x01" * 4096))
    assert pool.locality_fraction(0, dataset) == 1.0

    store = PooledKVStore(pool, capacity_bytes=mib(64), home_server=2, name="kv")
    engine.run(store.put(2, b"user:1", b"alice"))
    # the other tenant reads it through the shared pool
    assert engine.run(store.get(0, b"user:1")) == b"alice"

    # --- act 2: the serving tenant becomes the dataset's hot consumer --------
    for _ in range(6):
        pool.access_segments(2, dataset)
    report = engine.run(runtime.background_epoch())
    assert report.balancer.bytes_moved == gib(4)
    assert pool.locality_fraction(2, dataset) == 1.0
    # the handle survived the move
    assert engine.run(serving.read(dataset, 0, 4)) == b"\x01" * 4
    # and the scan now runs at local speed for the consumer
    bandwidth = engine.run(serving.scan(dataset))
    assert bandwidth == pytest.approx(97.0, rel=0.05)

    # --- act 3: protect critical data, then lose a server -------------------
    critical = ReplicatedBuffer(pool, mib(8), copies=2, home_server=1, name="critical")
    engine.run(critical.write(0, 0, b"must-survive"))
    scratch = pool.allocate(mib(8), requester_id=1, name="scratch")
    engine.run(pool.write(1, scratch, 0, b"expendable"))

    manager = RecoveryManager(pool)
    manager.register(critical)
    manager.register_unprotected(scratch)

    deployment.servers[1].crash()
    crash_report = engine.run(manager.handle_crash(1))
    assert crash_report.objects_repaired == 1
    assert crash_report.lost_buffers == ["scratch"]

    # protected data is intact and re-redundant on the survivors
    assert engine.run(critical.read(0, 0, 12)) == b"must-survive"
    assert not critical.degraded()
    assert 1 not in critical.replica_servers
    # unprotected data reports failure through exceptions
    with pytest.raises(MemoryFailureError):
        engine.run(pool.read(0, scratch, 0, 4))

    # --- act 4: life goes on on the surviving servers ------------------------
    fresh = analytics.alloc(gib(2), name="fresh")
    assert pool.locality_fraction(0, fresh) == 1.0
    assert engine.run(store.get(0, b"user:1")) == b"alice"

    # the dead server contributes nothing to the pool anymore
    free = pool.potential_free_by_server()
    assert 1 not in free


def test_deterministic_replay():
    """The same seed reproduces the same simulated timeline exactly."""

    def run_once() -> tuple[float, float]:
        deployment = build_logical("link0", seed=5)
        runtime = LmpRuntime(deployment)
        session = LmpSession(runtime, 0)
        buffer = session.alloc(gib(1))
        bandwidth = deployment.run(session.scan(buffer))
        return deployment.engine.now, bandwidth

    assert run_once() == run_once()
