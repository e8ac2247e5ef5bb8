"""Tests for the two-step address translation scheme and buffer handles."""

from __future__ import annotations

import pytest

from repro.core.addressing import AddressTranslator
from repro.core.buffer import Buffer
from repro.errors import AddressError
from repro.mem.layout import GlobalAddress, PageGeometry
from repro.mem.page_table import Protection
from repro.units import mib

GEO = PageGeometry(page_bytes=mib(2), extent_bytes=mib(256))


def make_translator(servers=(0, 1)) -> AddressTranslator:
    translator = AddressTranslator(GEO)
    for sid in servers:
        translator.register_server(sid)
    return translator


def claim_extent(translator: AddressTranslator, extent: int, owner: int) -> None:
    translator.global_map.claim(extent, owner)
    frames = [i * GEO.page_bytes for i in range(GEO.pages_per_extent)]
    translator.page_table(owner).map_extent(extent, frames, Protection.RW)


# --- translation --------------------------------------------------------------


def test_local_translation():
    translator = make_translator()
    claim_extent(translator, 0, owner=0)
    result = translator.translate(0, GlobalAddress(mib(2) + 7))
    assert result.server_id == 0
    assert not result.remote
    assert result.dram_offset == mib(2) + 7
    assert result.stale_retries == 0


def test_remote_translation_flagged():
    translator = make_translator()
    claim_extent(translator, 0, owner=1)
    result = translator.translate(0, GlobalAddress(0))
    assert result.server_id == 1
    assert result.remote


def test_stale_cache_retries_once_after_migration():
    translator = make_translator()
    claim_extent(translator, 0, owner=0)
    translator.translate(1, GlobalAddress(0))  # warms server 1's cache
    # migrate extent 0 to server 1 (map-level move)
    table0 = translator.page_table(0)
    protection = table0.protection(0)
    translator.page_table(1).map_extent(0, table0.unmap_extent(0), protection)
    translator.global_map.reassign(0, 1)

    result = translator.translate(1, GlobalAddress(0))
    assert result.server_id == 1
    assert result.stale_retries == 1
    # and the repaired cache answers with zero retries next time
    again = translator.translate(1, GlobalAddress(0))
    assert again.stale_retries == 0


def test_duplicate_registration_rejected():
    translator = make_translator()
    with pytest.raises(AddressError):
        translator.register_server(0)


def test_unregistered_server_rejected():
    translator = make_translator()
    with pytest.raises(AddressError):
        translator.translate(7, GlobalAddress(0))


def test_unbacked_address_raises():
    translator = make_translator()
    with pytest.raises(AddressError):
        translator.translate(0, GlobalAddress(0))


def test_segments_by_owner_merges_runs():
    translator = make_translator()
    claim_extent(translator, 0, owner=0)
    claim_extent(translator, 1, owner=0)
    claim_extent(translator, 2, owner=1)
    segments = translator.segments_by_owner(GlobalAddress(0), 3 * mib(256))
    assert segments == [
        (0, 0, 2 * mib(256)),
        (1, 2 * mib(256), mib(256)),
    ]


def test_segments_by_owner_partial_range():
    translator = make_translator()
    claim_extent(translator, 0, owner=0)
    segments = translator.segments_by_owner(GlobalAddress(mib(10)), mib(4))
    assert segments == [(0, mib(10), mib(4))]


def test_segments_by_owner_empty():
    translator = make_translator()
    assert translator.segments_by_owner(GlobalAddress(0), 0) == []


# --- buffer handles -------------------------------------------------------------


def make_buffer(size=mib(256)) -> Buffer:
    return Buffer(base=GlobalAddress(0), size=size, geometry=GEO, name="b")


def test_buffer_geometry():
    buffer = make_buffer(mib(512))
    assert buffer.end == mib(512)
    assert list(GEO.extents_covering(buffer.base, buffer.size)) == [0, 1]


def test_buffer_bounds_checked():
    buffer = make_buffer()
    with pytest.raises(AddressError):
        buffer.slice_addresses(buffer.size, 1)
    with pytest.raises(AddressError):
        buffer.slice_addresses(-1, 10)
    with pytest.raises(AddressError):
        buffer.slice_addresses(0, buffer.size + 1)


def test_freed_buffer_rejects_access():
    buffer = make_buffer()
    buffer.freed = True
    with pytest.raises(AddressError):
        buffer.slice_addresses(0, 1)


def test_buffer_must_be_extent_aligned():
    with pytest.raises(AddressError):
        Buffer(base=GlobalAddress(mib(2)), size=10, geometry=GEO)


def test_shards_cover_exactly():
    buffer = make_buffer(1000)
    shards = buffer.shards(14)
    assert sum(length for _o, length in shards) == 1000
    assert shards[0][0] == 0
    # contiguous
    for (off_a, len_a), (off_b, _len_b) in zip(shards, shards[1:]):
        assert off_a + len_a == off_b
    # near-equal
    lengths = [length for _o, length in shards]
    assert max(lengths) - min(lengths) <= 1


def test_shards_bad_parts():
    with pytest.raises(AddressError):
        make_buffer().shards(0)
