"""Tests for the page-granular LRU cache (Physical-cache model)."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.hw.cache import PageCache
from repro.units import mib


def test_first_touch_misses_then_hits():
    cache = PageCache(mib(8), page_bytes=mib(2))
    assert cache.access(0) is False
    assert cache.access(0) is True
    assert cache.hits == 1 and cache.misses == 1


def test_capacity_in_frames():
    cache = PageCache(mib(8), page_bytes=mib(2))
    assert cache.frame_count == 4
    assert cache.capacity_bytes == mib(8)


def test_lru_evicts_oldest():
    cache = PageCache(mib(4), page_bytes=mib(2))  # 2 frames
    cache.access(1)
    cache.access(2)
    cache.access(1)  # 1 is now MRU
    cache.access(3)  # evicts 2
    assert cache.contains(1) and cache.contains(3)
    assert not cache.contains(2)
    assert cache.evictions == 1


def test_dirty_eviction_counts_writeback():
    cache = PageCache(mib(4), page_bytes=mib(2))
    cache.access(1, write=True)
    cache.access(2)
    cache.access(3)  # evicts dirty page 1
    assert cache.writebacks == 1


def test_clean_eviction_has_no_writeback():
    cache = PageCache(mib(4), page_bytes=mib(2))
    cache.access(1)
    cache.access(2)
    cache.access(3)
    assert cache.writebacks == 0


def test_sequential_scan_larger_than_cache_thrashes():
    """The Figure 3 mechanism: a 24 GB scan through an 8 GB cache
    misses on every repetition."""
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames
    for _rep in range(3):
        outcome = cache.access_range(0, mib(24))
        assert outcome.hit_pages == 0
        assert outcome.miss_pages == 12


def test_scan_fitting_in_cache_hits_after_warmup():
    """The Figure 2 mechanism: an 8 GB scan in an 8 GB cache is all
    hits after the first repetition."""
    cache = PageCache(mib(8), page_bytes=mib(2))
    first = cache.access_range(0, mib(8))
    second = cache.access_range(0, mib(8))
    assert first.miss_pages == 4 and first.hit_pages == 0
    assert second.hit_pages == 4 and second.miss_pages == 0
    assert cache.hits == cache.misses == 4


def test_access_range_partial_pages():
    cache = PageCache(mib(8), page_bytes=mib(2))
    outcome = cache.access_range(mib(1), mib(2))  # straddles pages 0 and 1
    assert outcome.hit_pages + outcome.miss_pages == 2


def test_access_range_empty():
    cache = PageCache(mib(8), page_bytes=mib(2))
    outcome = cache.access_range(0, 0)
    assert outcome.hit_pages == outcome.miss_pages == 0


def test_invalidate_removes_silently():
    cache = PageCache(mib(4), page_bytes=mib(2))
    cache.access(1, write=True)
    cache.invalidate_range(1, 1)
    assert not cache.contains(1)
    assert cache.writebacks == 0


def test_clear_writes_back_dirty():
    cache = PageCache(mib(8), page_bytes=mib(2))
    cache.access(1, write=True)
    cache.access(2)
    assert cache.clear() == 1
    assert cache.resident_pages == 0


def test_bad_geometry_rejected():
    with pytest.raises(ConfigError):
        PageCache(mib(1), page_bytes=mib(2))  # smaller than one page
    with pytest.raises(ConfigError):
        PageCache(mib(2), page_bytes=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_occupancy_never_exceeds_frames(accesses):
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames
    for page in accesses:
        cache.access(page)
    assert cache.resident_pages <= cache.frame_count
    assert cache.hits + cache.misses == len(accesses)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_working_set_within_capacity_never_evicts(accesses):
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames, pages 0..3
    for page in accesses:
        cache.access(page)
    assert cache.evictions == 0


@settings(max_examples=200, deadline=None)
@given(
    accesses=st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=120),
    frames=st.integers(1, 24),
    first=st.integers(-5, 45),
    span=st.integers(-1, 60),
)
def test_invalidate_range_matches_the_per_page_loop(accesses, frames, first, span):
    """Whichever side it walks (range or resident pages), a ranged
    invalidate leaves the same resident set, LRU order and dirty flags
    as dropping each page of the range one at a time."""
    cache = PageCache(frames * mib(2), page_bytes=mib(2))
    for page_id, write in accesses:
        cache.access(page_id, write=write)
    last = first + span
    reference = collections.OrderedDict(cache._frames)
    for page_id in range(first, last + 1):
        reference.pop(page_id, None)
    expected = list(reference.items())
    counters = (cache.hits, cache.misses, cache.evictions, cache.writebacks)
    cache.invalidate_range(first, last)
    assert list(cache._frames.items()) == expected
    assert (cache.hits, cache.misses, cache.evictions, cache.writebacks) == counters
