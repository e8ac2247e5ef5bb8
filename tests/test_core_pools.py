"""Tests for the logical pool and the physical pool baselines."""

from __future__ import annotations

import pytest

from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.errors import (
    AddressError,
    CapacityError,
    ConfigError,
    InfeasibleWorkloadError,
    MemoryFailureError,
)
from repro.mem.interleave import RoundRobinPlacement
from repro.topology.builder import build_logical
from repro.units import gib, mib


# --- logical: allocation ---------------------------------------------------------


def test_allocation_is_extent_granular(logical_pool):
    buffer = logical_pool.allocate(mib(300), requester_id=0)
    assert list(buffer.geometry.extents_covering(buffer.base, buffer.size)) == [0, 1]
    assert logical_pool.pooled_free_bytes == logical_pool.pooled_bytes - mib(512)


def test_local_first_locality(logical_pool):
    buffer = logical_pool.allocate(gib(8), requester_id=2)
    assert logical_pool.locality_fraction(2, buffer) == 1.0
    assert logical_pool.locality_fraction(0, buffer) == 0.0


def test_spill_beyond_one_server(logical_pool):
    buffer = logical_pool.allocate(gib(64), requester_id=0)
    assert logical_pool.locality_fraction(0, buffer) == pytest.approx(24 / 64)


def test_whole_pool_allocation_succeeds(logical_pool):
    """Figure 5: the logical pool can hold the 96 GiB vector."""
    buffer = logical_pool.allocate(gib(96), requester_id=0)
    assert buffer.size == gib(96)
    assert logical_pool.pooled_free_bytes == 0


def test_over_capacity_raises(logical_pool):
    with pytest.raises(InfeasibleWorkloadError):
        logical_pool.allocate(gib(97))


def test_free_returns_capacity(logical_pool):
    before = logical_pool.pooled_free_bytes
    buffer = logical_pool.allocate(gib(4), requester_id=0)
    logical_pool.free(buffer)
    assert logical_pool.pooled_free_bytes == before
    assert buffer.freed
    with pytest.raises(AddressError):
        logical_pool.free(buffer)


def test_buffers_are_registered(logical_pool):
    buffer = logical_pool.allocate(gib(1), requester_id=0, name="x")
    assert logical_pool.live_buffers == [buffer]


def test_custom_placement(logical_deployment):
    pool = LogicalMemoryPool(logical_deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(gib(8), requester_id=0)
    assert pool.locality_fraction(0, buffer) == pytest.approx(0.25)


def test_shared_fraction_sets_initial_ratio_but_flexes(logical_deployment):
    """shared_fraction is the *initial* split; allocation may flex
    private memory into the pool on demand (§4.5), up to full DRAM."""
    pool = LogicalMemoryPool(logical_deployment, shared_fraction=0.5)
    assert pool.pooled_bytes <= gib(48)
    buffer = pool.allocate(gib(49))  # grows shared regions on demand
    assert pool.pooled_bytes > gib(48)
    pool.free(buffer)
    with pytest.raises(CapacityError):
        pool.allocate(gib(97))  # beyond even the flexed maximum


def test_wrong_deployment_kind_rejected(physical_cache_deployment, logical_deployment):
    with pytest.raises(ConfigError):
        LogicalMemoryPool(physical_cache_deployment)
    with pytest.raises(ConfigError):
        PhysicalMemoryPool(logical_deployment)


# --- logical: data paths ----------------------------------------------------------


def test_access_segments_local_remote_split(logical_pool):
    buffer = logical_pool.allocate(gib(32), requester_id=0)
    segments = logical_pool.access_segments(0, buffer)
    local_bytes = sum(s.nbytes for s in segments if s.label == "local")
    remote_bytes = sum(s.nbytes for s in segments if s.label.startswith("remote"))
    assert local_bytes == gib(24)
    assert remote_bytes == gib(8)


def test_functional_write_read_cross_server(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(gib(8), requester_id=3)
    logical_deployment.run(logical_pool.write(0, buffer, mib(100), b"cross-server"))
    data = logical_deployment.run(logical_pool.read(2, buffer, mib(100), 12))
    assert data == b"cross-server"


def test_write_spanning_pages(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    blob = bytes(range(256)) * 64
    offset = mib(2) - 100  # straddles a page boundary
    logical_deployment.run(logical_pool.write(0, buffer, offset, blob))
    data = logical_deployment.run(logical_pool.read(1, buffer, offset, len(blob)))
    assert data == blob


def _overwrite(engine, payload: bytearray, after: float | None) -> None:
    """Reuse the caller's buffer for 0x02 bytes: at once (before the
    engine runs the write), or *after* ns while the write is in flight."""
    if after is None:
        payload[:] = b"\x02" * len(payload)
        return

    def later():
        yield engine.timeout(after)
        payload[:] = b"\x02" * len(payload)

    engine.process(later())


@pytest.mark.parametrize("after", [None, 1.0])
def test_logical_write_payload_is_fixed_at_the_call(logical_pool, logical_deployment, after):
    """A write split into page ops stores the payload as it stood when
    the write was issued: reusing the buffer meanwhile tears nothing."""
    engine = logical_deployment.engine
    page = logical_pool.geometry.page_bytes
    buffer = logical_pool.allocate(3 * page, requester_id=0)
    payload = bytearray(b"\x01") * (3 * page)
    write = logical_pool.write(0, buffer, 0, payload)
    _overwrite(engine, payload, after)
    assert engine.run(write) == 3 * page
    data = engine.run(logical_pool.read(0, buffer, 0, 3 * page))
    assert [data[k * page] for k in range(3)] == [1, 1, 1]
    assert data == b"\x01" * (3 * page)


def test_crashed_owner_raises_on_access(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(gib(8), requester_id=1)
    logical_deployment.servers[1].crash()
    with pytest.raises(MemoryFailureError):
        logical_pool.access_segments(0, buffer)
    with pytest.raises(MemoryFailureError):
        logical_deployment.run(logical_pool.read(0, buffer, 0, 64))


# --- logical: migration mechanism ----------------------------------------------


def test_migration_preserves_contents_and_addresses(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    logical_deployment.run(logical_pool.write(0, buffer, 1234, b"stable"))
    extent = buffer.geometry.extent_index(buffer.base)
    moved = logical_deployment.run(logical_pool.migrate_extent(extent, 2))
    assert moved == mib(256)
    assert logical_pool.locality_fraction(2, buffer) == 1.0
    # the handle and the logical address still work
    data = logical_deployment.run(logical_pool.read(0, buffer, 1234, 6))
    assert data == b"stable"


def test_migration_to_owner_is_a_local_move(logical_pool, logical_deployment):
    """A move to the owner copies the extent into new frames on the same
    server; the global map, its generation included, is left alone."""
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    logical_deployment.run(logical_pool.write(0, buffer, 1234, b"stable"))
    extent = buffer.geometry.extent_index(buffer.base)
    table = logical_pool.translator.page_table(0)
    global_map = logical_pool.translator.global_map
    old_frames = list(table.frames(extent))
    generation = global_map.generation
    shared_free = logical_pool.regions[0].shared_free_bytes
    moved = logical_deployment.run(logical_pool.migrate_extent(extent, 0))
    assert moved == mib(256)
    assert global_map.lookup_extent(extent).server_id == 0
    assert global_map.generation == generation
    assert set(table.frames(extent)).isdisjoint(old_frames)
    assert logical_pool.regions[0].shared_free_bytes == shared_free
    assert logical_deployment.run(logical_pool.read(1, buffer, 1234, 6)) == b"stable"


def test_migration_frees_source_frames(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    src_free = logical_pool.regions[0].shared_free_bytes
    dst_free = logical_pool.regions[3].shared_free_bytes
    extent = buffer.geometry.extent_index(buffer.base)
    logical_deployment.run(logical_pool.migrate_extent(extent, 3))
    assert logical_pool.regions[0].shared_free_bytes == src_free + mib(256)
    assert logical_pool.regions[3].shared_free_bytes == dst_free - mib(256)


def _idle_page_copy_ns(page_bytes: int) -> float:
    """How long one page's copy within a server takes on an idle rack."""
    idle = build_logical("link0")
    name = idle.server(0).name
    return idle.run(idle.transport.copy(name, 0, name, page_bytes, page_bytes))


@pytest.mark.parametrize("dst", [1, 0], ids=["remote", "local"])
def test_migration_catches_racing_writes(logical_pool, logical_deployment, dst):
    """A write landing mid-copy is re-copied by the dirty-page rounds.

    The remote write lands well inside the bulk copy.  The local one is
    issued a few ns before page 0's copy completes, so it is still in
    flight when that copy lands: a mover that commits each page as soon
    as it is copied frees the old frame under the write and loses it."""
    engine = logical_deployment.engine
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    logical_deployment.run(logical_pool.write(0, buffer, 0, b"old-value"))
    extent = buffer.geometry.extent_index(buffer.base)
    if dst == 0:
        delay = _idle_page_copy_ns(logical_pool.geometry.page_bytes) - 5.0
    else:
        delay = 1000.0  # well inside the bulk-copy phase
    migration = logical_pool.migrate_extent(extent, dst)

    def racer():
        yield engine.timeout(delay)
        yield logical_pool.write(0, buffer, 0, b"new-value")

    racer_proc = engine.process(racer())
    engine.run(engine.all_of([migration, racer_proc]))
    assert migration.value == mib(256)
    data = engine.run(logical_pool.read(2, buffer, 0, 9))
    assert data == b"new-value"


def test_migration_to_dead_server_rejected(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    logical_deployment.servers[3].crash()
    extent = buffer.geometry.extent_index(buffer.base)
    with pytest.raises(MemoryFailureError):
        logical_deployment.run(logical_pool.migrate_extent(extent, 3))


# --- physical pools ----------------------------------------------------------


def test_physical_capacity_is_the_pool_box(physical_nocache_pool):
    assert physical_nocache_pool.pooled_bytes == gib(64)


def test_figure5_infeasibility(physical_nocache_pool, physical_cache_pool):
    for pool in (physical_nocache_pool, physical_cache_pool):
        with pytest.raises(InfeasibleWorkloadError):
            pool.allocate(gib(96))


def test_physical_locality_is_always_zero(physical_nocache_pool):
    buffer = physical_nocache_pool.allocate(gib(8), requester_id=0)
    assert physical_nocache_pool.locality_fraction(0, buffer) == 0.0


def test_nocache_segments_cross_fabric(physical_nocache_pool):
    buffer = physical_nocache_pool.allocate(gib(8), requester_id=0)
    segments = physical_nocache_pool.access_segments(0, buffer)
    assert len(segments) == 1
    assert "pool" in [c.name.split(".")[0] for c in segments[0].path]


def test_cache_fills_then_hits(physical_cache_pool):
    buffer = physical_cache_pool.allocate(gib(4), requester_id=0)
    first = physical_cache_pool.access_segments(0, buffer)
    second = physical_cache_pool.access_segments(0, buffer)
    assert first[-1].fill_bytes == gib(4)
    assert second[-1].fill_bytes == 0  # warm


def test_cache_thrash_on_oversized_scan(physical_cache_pool):
    buffer = physical_cache_pool.allocate(gib(24), requester_id=0)
    for _rep in range(2):
        segments = physical_cache_pool.access_segments(0, buffer)
        assert segments[-1].fill_bytes == gib(24)  # every rep misses


def test_cache_write_eviction_generates_writeback(physical_cache_pool):
    cache = physical_cache_pool.caches[0]
    big = physical_cache_pool.allocate(gib(10), requester_id=0)
    physical_cache_pool.access_segments(0, big, write=True)  # dirty everything
    segments = physical_cache_pool.access_segments(0, big)  # rescan: evict dirty
    labels = [s.label for s in segments]
    assert "writeback" in labels
    assert cache.writebacks > 0


def test_caches_are_per_server(physical_cache_pool):
    buffer = physical_cache_pool.allocate(gib(4), requester_id=0)
    physical_cache_pool.access_segments(0, buffer)
    # server 1 has its own cold cache
    segments = physical_cache_pool.access_segments(1, buffer)
    assert segments[-1].fill_bytes == gib(4)


def test_physical_functional_round_trip(physical_nocache_pool, physical_nocache_deployment):
    buffer = physical_nocache_pool.allocate(mib(16), requester_id=0)
    physical_nocache_deployment.run(
        physical_nocache_pool.write(0, buffer, 5000, b"pooled")
    )
    data = physical_nocache_deployment.run(physical_nocache_pool.read(2, buffer, 5000, 6))
    assert data == b"pooled"


@pytest.mark.parametrize("after", [None, 1.0])
def test_physical_write_payload_is_fixed_at_the_call(
    physical_nocache_pool, physical_nocache_deployment, after
):
    """The pool stores the payload as it stood at the call, not what the
    caller's buffer holds when the bytes arrive."""
    engine = physical_nocache_deployment.engine
    buffer = physical_nocache_pool.allocate(mib(16), requester_id=0)
    payload = bytearray(b"\x01") * 4096
    write = physical_nocache_pool.write(0, buffer, 0, payload)
    _overwrite(engine, payload, after)
    engine.run(write)
    assert engine.run(physical_nocache_pool.read(0, buffer, 0, 4096)) == b"\x01" * 4096


def test_free_invalidates_cached_pages(physical_cache_pool):
    buffer = physical_cache_pool.allocate(gib(4), requester_id=0)
    physical_cache_pool.access_segments(0, buffer)
    cache = physical_cache_pool.caches[0]
    assert cache.resident_pages > 0
    physical_cache_pool.free(buffer)
    assert cache.resident_pages == 0


def test_pool_crash_fails_accesses(physical_nocache_pool, physical_nocache_deployment):
    buffer = physical_nocache_pool.allocate(mib(16), requester_id=0)
    physical_nocache_deployment.pool.crash()
    with pytest.raises(MemoryFailureError):
        physical_nocache_pool.access_segments(0, buffer)
    with pytest.raises(MemoryFailureError):
        physical_nocache_deployment.run(physical_nocache_pool.read(0, buffer, 0, 8))


def test_cached_functional_reads_hit_after_fill(physical_cache_pool, physical_cache_deployment):
    """The functional data path models the cache too: the first read
    fills the page at fabric cost, repeats are served at local latency."""
    engine = physical_cache_deployment.engine
    buffer = physical_cache_pool.allocate(mib(16), requester_id=0)
    engine.run(physical_cache_pool.write(0, buffer, 0, b"cached-bytes"))
    start = engine.now
    first = engine.run(physical_cache_pool.read(0, buffer, 0, 12))
    cold_time = engine.now - start
    start = engine.now
    second = engine.run(physical_cache_pool.read(0, buffer, 0, 12))
    warm_time = engine.now - start
    assert first == second == b"cached-bytes"
    assert warm_time < cold_time / 10  # 2 MiB fill vs a local hit
    assert physical_cache_pool.caches[0].hits > 0


def test_migration_aborts_when_destination_dies_mid_copy(logical_pool, logical_deployment):
    """A dead destination aborts the migration; the source stays
    authoritative and the destination's frames are returned."""
    engine = logical_deployment.engine
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    engine.run(logical_pool.write(0, buffer, 0, b"authoritative"))
    dst_free_before = logical_pool.regions[2].shared_free_bytes
    extent = buffer.geometry.extent_index(buffer.base)
    migration = logical_pool.migrate_extent(extent, 2)

    def assassin():
        yield engine.timeout(1000.0)  # mid bulk copy
        logical_deployment.servers[2].crash()

    engine.process(assassin())
    from repro.errors import MigrationError
    with pytest.raises(MigrationError, match="crashed mid-copy"):
        engine.run(migration)
    # source still owns the extent and the data
    owner = logical_pool.translator.global_map.lookup_extent(extent).server_id
    assert owner == 0
    data = engine.run(logical_pool.read(1, buffer, 0, 13))
    assert data == b"authoritative"
    assert logical_pool.regions[2].shared_free_bytes == dst_free_before


def test_migration_reports_loss_when_source_dies_mid_copy(logical_pool, logical_deployment):
    """A dead source means the data is gone: the migration must raise,
    never commit a zero-filled copy as if it were the data."""
    engine = logical_deployment.engine
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    engine.run(logical_pool.write(0, buffer, 0, b"doomed"))
    extent = buffer.geometry.extent_index(buffer.base)
    migration = logical_pool.migrate_extent(extent, 3)

    def assassin():
        yield engine.timeout(1000.0)
        logical_deployment.servers[0].crash()

    engine.process(assassin())
    with pytest.raises(MemoryFailureError, match="mid-migration"):
        engine.run(migration)
