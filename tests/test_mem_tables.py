"""Tests for page tables, the global map, and address geometry."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, MigrationError, ProtectionError
from repro.mem.global_map import GlobalMap, MapCache
from repro.mem.layout import GlobalAddress, PageGeometry
from repro.mem.page_table import PageTable, Protection
from repro.units import mib

GEO = PageGeometry(page_bytes=mib(2), extent_bytes=mib(256))


# --- geometry ----------------------------------------------------------------


def test_geometry_derived_quantities():
    assert GEO.pages_per_extent == 128
    assert GEO.page_index(mib(2) * 5 + 17) == 5
    assert GEO.page_offset(mib(2) * 5 + 17) == 17
    assert GEO.extent_index(mib(256) * 3) == 3


def test_geometry_requires_divisibility():
    with pytest.raises(Exception):
        PageGeometry(page_bytes=3000, extent_bytes=10_000)


def test_global_address_arithmetic():
    addr = GlobalAddress(100)
    assert int(addr + 28) == 128
    with pytest.raises(AddressError):
        GlobalAddress(-1)


# --- page table --------------------------------------------------------------

PPE = GEO.pages_per_extent


def frames_from(first_frame: int, count: int = PPE) -> list[int]:
    """Frames for one extent's pages: consecutive, from *first_frame*."""
    return [first_frame + i * GEO.page_bytes for i in range(count)]


def test_map_translate_unmap():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(mib(2) * 2))
    assert table.translate(5, 100) == mib(2) * 7 + 100
    frames = table.unmap_extent(0)
    assert frames[5] == mib(2) * 7
    with pytest.raises(AddressError):
        table.entry(5)


def test_double_map_rejected():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(0))
    with pytest.raises(AddressError):
        table.map_extent(0, frames_from(mib(2) * PPE))


def test_unaligned_frame_rejected():
    table = PageTable(0, GEO)
    with pytest.raises(AddressError):
        table.map_extent(0, [1234] + frames_from(mib(2), PPE - 1))


def test_translate_unmapped_raises():
    table = PageTable(0, GEO)
    with pytest.raises(AddressError):
        table.translate(9, 0)


def test_protection_enforced():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(0), Protection.READ)
    table.translate(1, 0, write=False)
    with pytest.raises(ProtectionError):
        table.translate(1, 0, write=True)


def test_access_and_dirty_bits():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(0))
    table.translate(1, 0)
    entry = table.entry(1)
    assert entry.accessed and not entry.dirty
    table.translate(1, 0, write=True)
    assert entry.dirty


def test_remote_counters_feed_balancer():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(0))
    table.translate(2, 0, remote=True)
    table.translate(2, 0, remote=True)
    table.translate(3, 0, remote=True)
    table.translate(1, 0, remote=False)
    counts = [table.entry(page).remote_accesses for page in (1, 2, 3)]
    assert counts == [0, 2, 1]


def test_sparse_pages_use_two_level_structure():
    table = PageTable(0, GEO)
    table.map_extent(0, frames_from(0))
    table.map_extent(1 << 20, frames_from(mib(2)))  # far-apart extents share no leaf
    assert table.mapped_pages == 2 * PPE
    assert table.entry((1 << 20) * PPE).frame_offset == mib(2)
    assert len(table._directory) == 2  # one leaf per far-apart extent


def test_map_extent_needs_one_frame_per_page():
    table = PageTable(0, GEO)
    with pytest.raises(AddressError):
        table.map_extent(0, frames_from(0, PPE - 1))
    with pytest.raises(AddressError):
        table.map_extent(0, [-mib(2)] + frames_from(0, PPE - 1))
    assert table.mapped_pages == 0


# --- global map --------------------------------------------------------------


def test_claim_lookup_release():
    gmap = GlobalMap(GEO)
    entry = gmap.claim(3, server_id=1)
    assert gmap.owner(GlobalAddress(mib(256) * 3 + 5)) == 1
    assert entry.generation == 1
    gmap.release(3)
    with pytest.raises(AddressError):
        gmap.lookup_extent(3)


def test_double_claim_rejected():
    gmap = GlobalMap(GEO)
    gmap.claim(1, 0)
    with pytest.raises(AddressError):
        gmap.claim(1, 2)


def test_reassign_bumps_generation():
    gmap = GlobalMap(GEO)
    first = gmap.claim(1, 0)
    moved = gmap.reassign(1, 2)
    assert moved.server_id == 2
    assert moved.generation > first.generation


def test_reassign_unclaimed_rejected():
    gmap = GlobalMap(GEO)
    with pytest.raises(MigrationError):
        gmap.reassign(9, 1)


def test_extents_of_server():
    gmap = GlobalMap(GEO)
    gmap.claim(1, 0)
    gmap.claim(2, 1)
    gmap.claim(3, 0)
    assert gmap.extents_of(0) == [1, 3]
    assert gmap.extents_of(1) == [2]


def test_lookup_unbacked_address():
    gmap = GlobalMap(GEO)
    with pytest.raises(AddressError):
        gmap.lookup(GlobalAddress(0))


# --- map cache ---------------------------------------------------------------


def test_cache_hits_after_first_lookup():
    gmap = GlobalMap(GEO)
    gmap.claim(0, 0)
    cache = MapCache(gmap)
    cache.lookup(GlobalAddress(0))
    cache.lookup(GlobalAddress(100))
    assert cache.hits == 1 and cache.misses == 1


def test_cache_detects_staleness_after_migration():
    gmap = GlobalMap(GEO)
    gmap.claim(0, 0)
    cache = MapCache(gmap)
    entry = cache.lookup(GlobalAddress(0))
    assert cache.is_current(entry)
    gmap.reassign(0, 3)
    assert not cache.is_current(entry)
    cache.note_stale(0)
    fresh = cache.lookup(GlobalAddress(0))
    assert fresh.server_id == 3
    assert cache.invalidations == 1
