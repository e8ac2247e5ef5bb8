"""Tests for the free-list and buddy allocators.  Their stateful
conservation-invariant coverage lives in ``test_arena_properties.py``,
shared with the other three arena strategies."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, ConfigError
from repro.mem.allocator import BuddyAllocator, FreeListAllocator


# --- free list ---------------------------------------------------------------


def test_freelist_basic_alloc_free():
    alloc = FreeListAllocator(1024, align=64)
    a = alloc.allocate(100)
    assert a.size == 128  # rounded to alignment
    assert alloc.bytes_allocated == 128
    alloc.free(a)
    assert alloc.bytes_allocated == 0
    assert alloc.largest_hole == 1024


def test_freelist_first_fit_order():
    alloc = FreeListAllocator(1024, align=64)
    a = alloc.allocate(256)
    b = alloc.allocate(256)
    alloc.free(a)
    c = alloc.allocate(128)  # first fit: takes a's hole
    assert c.offset == a.offset
    assert b.offset == 256


def test_freelist_best_fit_prefers_tight_hole():
    alloc = FreeListAllocator(1024, policy="best-fit", align=64)
    a = alloc.allocate(256)
    b = alloc.allocate(128)
    c = alloc.allocate(640)
    alloc.free(a)  # 256-byte hole at 0
    alloc.free(c)  # 640-byte hole at the end
    d = alloc.allocate(256)
    assert d.offset == a.offset  # tight fit chosen over the big hole
    alloc.check_invariants()
    assert b.offset == 256


def test_freelist_coalesces_neighbors():
    alloc = FreeListAllocator(1024, align=64)
    a = alloc.allocate(256)
    b = alloc.allocate(256)
    c = alloc.allocate(256)
    alloc.free(a)
    alloc.free(c)
    alloc.free(b)  # merges with both neighbors
    assert alloc.largest_hole == 1024
    alloc.check_invariants()


def test_freelist_exhaustion_raises():
    alloc = FreeListAllocator(256, align=64)
    alloc.allocate(256)
    with pytest.raises(AllocationError):
        alloc.allocate(64)
    assert alloc.fail_count == 1


def test_freelist_fragmentation_blocks_large_alloc():
    alloc = FreeListAllocator(1024, align=64)
    blocks = [alloc.allocate(128) for _ in range(8)]
    for block in blocks[::2]:
        alloc.free(block)
    # 512 free, but the largest hole is 128
    assert alloc.bytes_free == 512
    with pytest.raises(AllocationError):
        alloc.allocate(256)
    assert alloc.fragmentation() > 0.5


def test_freelist_double_free_rejected():
    alloc = FreeListAllocator(1024)
    a = alloc.allocate(64)
    alloc.free(a)
    with pytest.raises(AllocationError):
        alloc.free(a)


def test_freelist_invalid_config():
    with pytest.raises(ConfigError):
        FreeListAllocator(0)
    with pytest.raises(ConfigError):
        FreeListAllocator(1024, policy="worst-fit")
    with pytest.raises(ConfigError):
        FreeListAllocator(1024, align=48)


def test_freelist_alloc_count_counts_requests_not_live_blocks():
    """500 requests interleaved with frees: ``alloc_count`` counts every
    grant (frees do not lower it), and a relocation is not a new one."""
    alloc = FreeListAllocator(1 << 30, align=4096)
    live = []
    for i in range(500):
        live.append(alloc.allocate(4096 * (1 + i % 17)))
        if i % 3 == 0:
            alloc.free(live.pop(0))
    assert alloc.alloc_count == 500
    alloc.relocate(live[-1])
    assert alloc.alloc_count == 500
    alloc.check_invariants()


def test_freelist_rejects_nonpositive_alloc():
    with pytest.raises(AllocationError):
        FreeListAllocator(1024).allocate(0)


# stateful invariant coverage (random alloc/free interleavings) lives in
# tests/test_arena_properties.py now, uniformly across all five strategies


# --- buddy ------------------------------------------------------------------


def test_buddy_rounds_to_power_of_two():
    buddy = BuddyAllocator(4096, min_block=256)
    a = buddy.allocate(300)
    assert a.size == 512
    assert buddy.bytes_allocated == 512


def test_buddy_split_and_recombine():
    buddy = BuddyAllocator(1024, min_block=256)
    a = buddy.allocate(256)
    b = buddy.allocate(256)
    c = buddy.allocate(512)
    with pytest.raises(AllocationError):
        buddy.allocate(256)
    buddy.free(a)
    buddy.free(b)
    buddy.free(c)
    # fully recombined: a max-order allocation succeeds again
    d = buddy.allocate(1024)
    assert d.offset == 0


def test_buddy_buddies_merge_only_with_partner():
    buddy = BuddyAllocator(1024, min_block=256)
    blocks = [buddy.allocate(256) for _ in range(4)]
    buddy.free(blocks[0])
    buddy.free(blocks[2])  # not buddies: no merge
    with pytest.raises(AllocationError):
        buddy.allocate(512)
    buddy.free(blocks[1])  # 0+1 merge now
    assert buddy.allocate(512).offset == 0


def test_buddy_oversized_request_rejected():
    buddy = BuddyAllocator(1024, min_block=256)
    with pytest.raises(AllocationError):
        buddy.allocate(2048)


def test_buddy_double_free_rejected():
    buddy = BuddyAllocator(1024, min_block=256)
    a = buddy.allocate(256)
    buddy.free(a)
    with pytest.raises(AllocationError):
        buddy.free(a)


def test_buddy_config_validation():
    with pytest.raises(ConfigError):
        BuddyAllocator(128, min_block=256)
    with pytest.raises(ConfigError):
        BuddyAllocator(1024, min_block=300)


def test_buddy_config_validation_rejects_bad_min_block():
    with pytest.raises(ConfigError):
        BuddyAllocator(1024, min_block=-256)
