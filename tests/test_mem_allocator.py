"""Tests for the first-fit free-list allocator.  Its stateful
conservation-invariant coverage lives in ``test_arena_properties.py``."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, ConfigError
from repro.mem.allocator import FreeListAllocator


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
