"""Tests for the LMP runtime and the application library (sessions)."""

from __future__ import annotations

import pytest

from repro.core.api import LmpSession
from repro.core.runtime import LmpRuntime
from repro.errors import AddressError, ConfigError
from repro.units import gib, mib


@pytest.fixture
def runtime(logical_deployment) -> LmpRuntime:
    return LmpRuntime(logical_deployment, shared_fraction=0.9)


@pytest.fixture
def session(runtime) -> LmpSession:
    return LmpSession(runtime, server_id=0)


# --- sessions: allocation and mapping --------------------------------------------


def test_alloc_is_local_first(runtime, session):
    buffer = session.alloc(gib(4), name="mine")
    assert runtime.pool.locality_fraction(0, buffer) == 1.0
    session.free(buffer)
    assert buffer.freed


def test_map_read_write_virtual(runtime, session, logical_deployment):
    buffer = session.alloc(mib(64))
    mapping = session.map(buffer)
    logical_deployment.run(session.write_v(mapping.vaddr + 500, b"virtual!"))
    data = logical_deployment.run(session.read_v(mapping.vaddr + 500, 8))
    assert data == b"virtual!"


def test_mappings_do_not_overlap(session):
    a = session.map(session.alloc(mib(64)))
    b = session.map(session.alloc(mib(64)))
    assert a.end <= b.vaddr


def test_unmapped_virtual_access_rejected(session):
    buffer = session.alloc(mib(64))
    mapping = session.map(buffer)
    with pytest.raises(AddressError):
        session.read_v(mapping.end + 10, 4)
    session.unmap(mapping)
    with pytest.raises(AddressError):
        session.read_v(mapping.vaddr, 4)
    with pytest.raises(AddressError):
        session.unmap(mapping)


def test_session_requires_valid_server(runtime):
    with pytest.raises(ConfigError):
        LmpSession(runtime, server_id=17)


def test_two_sessions_share_the_pool(runtime, logical_deployment):
    writer = LmpSession(runtime, 0)
    reader = LmpSession(runtime, 3)
    buffer = writer.alloc(mib(64), name="shared")
    logical_deployment.run(writer.write(buffer, 0, b"one pool"))
    data = logical_deployment.run(reader.read(buffer, 0, 8))
    assert data == b"one pool"


# --- sessions: streaming and compute ------------------------------------------


def test_scan_reaches_local_bandwidth(session, logical_deployment):
    buffer = session.alloc(gib(2))
    bandwidth = logical_deployment.run(session.scan(buffer))
    assert bandwidth == pytest.approx(97.0, rel=0.02)


def test_sum_shipped_matches_ground_truth(session, logical_deployment):
    buffer = session.alloc(mib(4))
    logical_deployment.run(session.write(buffer, 0, bytes([5]) * 777))
    total = logical_deployment.run(
        session.runtime.compute.map_reduce(buffer, mapper=sum, reducer=sum, requester_id=0)
    )
    assert total == 5 * 777


# --- sessions: synchronization objects -------------------------------------------


def test_sync_objects_carve_coherent_lines(runtime, session):
    before = runtime._next_coherent_line
    session.spinlock()
    session.spinlock()
    assert runtime._next_coherent_line == before + 2


def test_coherent_region_exhaustion(logical_deployment):
    runtime = LmpRuntime(logical_deployment, coherent_bytes=mib(2))
    with pytest.raises(ConfigError):
        runtime.allocate_coherent_lines(runtime.coherence.line_count + 1)


def test_locks_from_sessions_work(runtime, logical_deployment):
    session0 = LmpSession(runtime, 0)
    lock = session0.spinlock()
    engine = logical_deployment.engine
    counter = {"v": 0}

    def worker(host):
        for _ in range(3):
            yield lock.acquire(host)
            counter["v"] += 1
            yield engine.timeout(10.0)
            yield lock.release(host)

    procs = [engine.process(worker(h)) for h in range(4)]
    engine.run(engine.all_of(procs))
    assert counter["v"] == 12


# --- runtime background tasks --------------------------------------------------


def test_background_epoch_migrates_hot_data(runtime, logical_deployment):
    buffer = runtime.pool.allocate(gib(1), requester_id=0, name="hot")
    for _ in range(4):
        runtime.pool.access_segments(2, buffer)
    report = logical_deployment.run(runtime.background_epoch())
    assert report.balancer.bytes_moved == gib(1)
    assert runtime.pool.locality_fraction(2, buffer) == 1.0


def test_background_epoch_trims_idle_shared(runtime, logical_deployment):
    # nothing allocated: regions shrink toward zero shared
    report = logical_deployment.run(runtime.background_epoch())
    assert all(v == 0 for v in report.shared_bytes.values())


def test_runtime_config_validation(logical_deployment):
    with pytest.raises(ConfigError):
        LmpRuntime(logical_deployment, sizing_headroom=-1.0)
    runtime = LmpRuntime(logical_deployment)
    with pytest.raises(ConfigError):
        runtime.allocate_coherent_lines(0)


def test_runtime_reclaim_private(runtime, logical_deployment):
    """The runtime exposes pressure eviction: private memory comes back
    even when shared extents occupy the region."""
    buffer = runtime.pool.allocate(gib(1), requester_id=3, name="tenant")
    private_before = runtime.pool.regions[3].private_bytes
    report = logical_deployment.run(runtime.reclaim_private(3, gib(4)))
    assert report.satisfied
    assert runtime.pool.regions[3].private_bytes >= private_before + gib(4)
    # the tenant's data remains addressable wherever it landed
    data = logical_deployment.run(runtime.pool.read(3, buffer, 0, 8))
    assert data == bytes(8)
