"""Tests for the page-granular LRU cache (Physical-cache model).

``PageCache`` books resident pages as runs; :class:`PerPageLRU` below is
the page-at-a-time LRU it replaced, kept as the reference model that
every outcome, the LRU order, the dirty flags and the counters are
checked against.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import ConfigError
from repro.hw.cache import PageCache, RangeOutcome
from repro.units import mib


class PerPageLRU:
    """Reference model: one ``OrderedDict`` entry per resident page,
    touched one page at a time."""

    def __init__(self, capacity_bytes: int, page_bytes: int) -> None:
        self.page_bytes = page_bytes
        self.frame_count = capacity_bytes // page_bytes
        #: page_id -> dirty flag; insertion order is LRU order (oldest first)
        self.frames: collections.OrderedDict[int, bool] = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def access(self, page_id: int, write: bool = False) -> bool:
        if page_id in self.frames:
            self.hits += 1
            self.frames.move_to_end(page_id)
            if write:
                self.frames[page_id] = True
            return True
        self.misses += 1
        if len(self.frames) >= self.frame_count:
            _victim, dirty = self.frames.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        self.frames[page_id] = write
        return False

    def access_range(self, offset: int, size: int, write: bool = False) -> RangeOutcome:
        if size == 0:
            return RangeOutcome(0, 0, 0)
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        writebacks_before = self.writebacks
        hits = misses = 0
        for page_id in range(first, last + 1):
            if self.access(page_id, write=write):
                hits += 1
            else:
                misses += 1
        return RangeOutcome(hits, misses, self.writebacks - writebacks_before)

    def invalidate_range(self, first: int, last: int) -> None:
        for page_id in range(first, last + 1):
            self.frames.pop(page_id, None)

    def clear(self) -> int:
        dirty = sum(1 for d in self.frames.values() if d)
        self.writebacks += dirty
        self.frames.clear()
        return dirty

    def lru_pages(self) -> list[tuple[int, bool]]:
        return list(self.frames.items())


def counters(cache: PageCache | PerPageLRU) -> tuple[int, int, int, int]:
    return (cache.hits, cache.misses, cache.evictions, cache.writebacks)


def lru_pages(cache: PageCache) -> list[tuple[int, bool]]:
    """Every resident ``(page, dirty)`` of *cache*, least recently used
    first: its runs in ``(stamp, start)`` order, expanded to pages."""
    runs = sorted(cache._runs.items(), key=lambda item: (item[1].stamp, item[0]))
    return [(page, run.dirty) for start, run in runs for page in range(start, run.end + 1)]


def assert_same_state(cache: PageCache, reference: PerPageLRU) -> None:
    assert lru_pages(cache) == reference.lru_pages()
    assert cache.resident_pages == len(reference.frames)
    assert counters(cache) == counters(reference)


def touch(cache: PageCache, page_id: int, write: bool = False) -> bool:
    """One page through ``access_range``; True on a hit."""
    outcome = cache.access_range(page_id * cache.page_bytes, 1, write=write)
    return outcome.hit_pages == 1


def test_first_touch_misses_then_hits():
    cache = PageCache(mib(8), page_bytes=mib(2))
    assert touch(cache, 0) is False
    assert touch(cache, 0) is True
    assert cache.hits == 1 and cache.misses == 1


def test_capacity_in_frames():
    cache = PageCache(mib(8), page_bytes=mib(2))
    assert cache.frame_count == 4
    assert cache.capacity_bytes == mib(8)


def test_lru_evicts_oldest():
    cache = PageCache(mib(4), page_bytes=mib(2))  # 2 frames
    touch(cache, 1)
    touch(cache, 2)
    touch(cache, 1)  # 1 is now MRU
    touch(cache, 3)  # evicts 2
    assert cache.contains(1) and cache.contains(3)
    assert not cache.contains(2)
    assert cache.evictions == 1


def test_dirty_eviction_counts_writeback():
    cache = PageCache(mib(4), page_bytes=mib(2))
    touch(cache, 1, write=True)
    touch(cache, 2)
    touch(cache, 3)  # evicts dirty page 1
    assert cache.writebacks == 1


def test_clean_eviction_has_no_writeback():
    cache = PageCache(mib(4), page_bytes=mib(2))
    touch(cache, 1)
    touch(cache, 2)
    touch(cache, 3)
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


def test_write_range_larger_than_cache_writes_back_its_own_first_pages():
    """Six dirty pages through four frames: the range's own first two
    pages are evicted before it ends, and each is a writeback."""
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames
    reference = PerPageLRU(mib(8), mib(2))
    outcome = cache.access_range(0, mib(12), write=True)
    assert outcome == RangeOutcome(hit_pages=0, miss_pages=6, writeback_pages=2)
    assert outcome == reference.access_range(0, mib(12), write=True)
    assert lru_pages(cache) == [(2, True), (3, True), (4, True), (5, True)]
    assert_same_state(cache, reference)


def test_early_misses_evict_later_resident_pages_of_the_range():
    """Pages 2 and 3 are resident when the range 0..3 starts, but the
    misses on 0 and 1 evict them first, so they miss too."""
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames
    reference = PerPageLRU(mib(8), mib(2))
    for model in (cache, reference):
        model.access_range(mib(4), mib(4))  # pages 2, 3
        model.access_range(mib(20), mib(4))  # pages 10, 11
    outcome = cache.access_range(0, mib(8))  # pages 0..3
    assert outcome == RangeOutcome(hit_pages=0, miss_pages=4, writeback_pages=0)
    assert outcome == reference.access_range(0, mib(8))
    assert cache.evictions == 4
    assert_same_state(cache, reference)


def test_lru_order_survives_many_calls_without_evictions():
    """Hits that never evict leave stale eviction-order entries behind
    until the cache rebuilds that order; the next evictions still take
    the least recently used pages."""
    cache = PageCache(mib(16), page_bytes=mib(2))  # 8 frames
    reference = PerPageLRU(mib(16), mib(2))
    for rep in range(300):
        offset = mib(4) * (rep % 3)
        for model in (cache, reference):
            model.access_range(offset, mib(3), write=rep % 7 == 0)
    for model in (cache, reference):
        model.access_range(mib(20), mib(10))  # pages 10..14 evict three
    assert_same_state(cache, reference)


def test_invalidate_removes_silently():
    cache = PageCache(mib(4), page_bytes=mib(2))
    touch(cache, 1, write=True)
    cache.invalidate_range(1, 1)
    assert not cache.contains(1)
    assert cache.writebacks == 0


def test_clear_writes_back_dirty():
    cache = PageCache(mib(8), page_bytes=mib(2))
    touch(cache, 1, write=True)
    touch(cache, 2)
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
        touch(cache, page)
    assert cache.resident_pages <= cache.frame_count
    assert cache.hits + cache.misses == len(accesses)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_working_set_within_capacity_never_evicts(accesses):
    cache = PageCache(mib(8), page_bytes=mib(2))  # 4 frames, pages 0..3
    for page in accesses:
        touch(cache, page)
    assert cache.evictions == 0


@settings(max_examples=200, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6), st.booleans()), max_size=60
    ),
    frames=st.integers(1, 24),
    first=st.integers(-5, 45),
    span=st.integers(-1, 60),
)
def test_invalidate_range_matches_the_per_page_loop(accesses, frames, first, span):
    """A ranged invalidate, which cuts whole runs, leaves the same
    resident set, LRU order, dirty flags and counters as the reference
    model dropping each page of the range one at a time."""
    cache = PageCache(frames * mib(2), page_bytes=mib(2))
    reference = PerPageLRU(frames * mib(2), mib(2))
    for page_id, pages, write in accesses:
        for model in (cache, reference):
            model.access_range(page_id * mib(2), pages * mib(2), write=write)
    cache.invalidate_range(first, first + span)
    reference.invalidate_range(first, first + span)
    assert_same_state(cache, reference)


PAGE = 16


class RangeCacheMachine(RuleBasedStateMachine):
    """Random ranged accesses, invalidates and clears on a small cache,
    checked step by step against the per-page reference model."""

    @initialize(frames=st.integers(1, 10))
    def setup(self, frames: int) -> None:
        self.cache = PageCache(frames * PAGE, page_bytes=PAGE)
        self.reference = PerPageLRU(frames * PAGE, PAGE)

    @rule(
        offset=st.integers(0, 24 * PAGE),
        # mostly short ranges, which leave several runs resident, and
        # some up to three times the largest cache
        size=st.one_of(st.integers(0, 3 * PAGE), st.integers(0, 30 * PAGE)),
        write=st.booleans(),
    )
    def access_range(self, offset: int, size: int, write: bool) -> None:
        outcome = self.cache.access_range(offset, size, write=write)
        assert outcome == self.reference.access_range(offset, size, write=write)

    @rule(first=st.integers(-2, 56), span=st.integers(-1, 30))
    def invalidate_range(self, first: int, span: int) -> None:
        self.cache.invalidate_range(first, first + span)
        self.reference.invalidate_range(first, first + span)

    @rule()
    def clear(self) -> None:
        assert self.cache.clear() == self.reference.clear()

    @invariant()
    def same_state(self) -> None:
        assert_same_state(self.cache, self.reference)
        for page_id in range(0, 58):
            assert self.cache.contains(page_id) == (page_id in self.reference.frames)


RangeCacheMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestRangeCache = RangeCacheMachine.TestCase
