"""Local-memory-as-cache model for the Physical-cache configuration.

The paper's first physical-pool setup "uses local memory as cache for
the pooled memory"; "caching incurs an upfront memcpy() overhead but
provides faster subsequent reads" (§4.1).  We model that cache as a
page-granular LRU: on a miss the page is copied from the pool into
local DRAM (the upfront memcpy — traffic charged to the fabric link and
the local channel), after which reads hit local DRAM until eviction.

The model is page-granular; only its bookkeeping is not.  Resident
pages are kept as *runs*: consecutive pages that share one dirty flag
and one *stamp*, the number of the :meth:`PageCache.access_range` call
that last touched them.  A call touches its pages in ascending order
and each touched page goes to the MRU end, so the cache's LRU order is
exactly ``(stamp, page)``: splitting a run keeps the order, eviction
takes the run with the smallest ``(stamp, start)``, and runs are found
by page through a sorted index of run starts.  One ``access_range`` or
``invalidate_range`` call therefore costs O((runs touched + runs
evicted) · log runs) index work, never a step per page.

The cache itself is a pure state machine with no simulator dependency —
the workload driver charges the fill/writeback traffic it reports.
That keeps replacement policy behaviour directly unit-testable.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq

from repro.errors import ConfigError
from repro.units import mib

#: stale entries the eviction heap may hold beyond one per run before it
#: is rebuilt (otherwise they are dropped only when they surface)
_HEAP_SLACK = 64


@dataclasses.dataclass(frozen=True)
class RangeOutcome:
    """Result of touching a run of pages."""

    hit_pages: int
    miss_pages: int
    writeback_pages: int


class _Run:
    """Resident pages ``start..end`` (the start is the index key)."""

    __slots__ = ("end", "stamp", "dirty")

    def __init__(self, end: int, stamp: int, dirty: bool) -> None:
        self.end = end
        self.stamp = stamp
        self.dirty = dirty


class PageCache:
    """Page-granular LRU cache of pooled memory held in local DRAM."""

    def __init__(self, capacity_bytes: int, page_bytes: int = mib(2), name: str = "cache") -> None:
        if page_bytes <= 0:
            raise ConfigError(f"page_bytes must be positive, got {page_bytes}")
        if capacity_bytes < page_bytes:
            raise ConfigError(
                f"cache capacity {capacity_bytes} smaller than one page {page_bytes}"
            )
        self.name = name
        self.page_bytes = int(page_bytes)
        self.frame_count = int(capacity_bytes) // self.page_bytes
        #: sorted first pages of the resident runs
        self._starts: list[int] = []
        #: first page -> its run
        self._runs: dict[int, _Run] = {}
        #: (stamp, start) min-heap in LRU order; an entry whose run is
        #: gone or restamped is stale and skipped when it surfaces
        self._lru: list[tuple[int, int]] = []
        self._stamp = 0
        self._resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- queries ------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return self._resident

    @property
    def capacity_bytes(self) -> int:
        return self.frame_count * self.page_bytes

    def contains(self, page_id: int) -> bool:
        index = bisect.bisect_right(self._starts, page_id) - 1
        return index >= 0 and self._runs[self._starts[index]].end >= page_id

    # -- accesses ---------------------------------------------------------------

    def access_range(self, offset: int, size: int, write: bool = False) -> RangeOutcome:
        """Touch every page overlapping [offset, offset+size) in ascending
        order, as one page-at-a-time LRU would: hits move to the MRU end
        (dirtied by a write), misses are inserted there, evicting the LRU
        page when full and counting a writeback if it was dirty.

        Walks the range one resident run or gap of misses at a time.  A
        gap's misses evict in bulk, so they can evict pages later in the
        range (which then miss) or, once nothing older is left, the
        range's own earlier pages."""
        if size < 0:
            raise ConfigError(f"negative access size {size}")
        if size == 0:
            return RangeOutcome(0, 0, 0)
        page = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        self._stamp += 1
        stamp = self._stamp
        starts = self._starts
        runs = self._runs
        hits = 0
        misses = 0
        writebacks = 0
        while page <= last:
            index = bisect.bisect_right(starts, page) - 1
            run = runs[starts[index]] if index >= 0 else None
            if run is not None and run.end >= page:
                # resident: hits, moved to the MRU end with this stamp
                end = min(run.end, last)
                hits += end - page + 1
                self._cut(index, page, end)
                self._insert(page, end, stamp, run.dirty or write)
            else:
                # a gap of misses up to the next resident page
                index += 1
                end = min(starts[index] - 1, last) if index < len(starts) else last
                count = end - page + 1
                misses += count
                excess = self._resident + count - self.frame_count
                if excess > 0:
                    self.evictions += excess
                    cached = min(excess, self._resident)
                    writebacks += self._evict(cached)
                    # a gap longer than the cache evicts its own first pages
                    page += excess - cached
                    if write:
                        writebacks += excess - cached
                self._resident += end - page + 1
                self._insert(page, end, stamp, write)
            page = end + 1
        self.hits += hits
        self.misses += misses
        self.writebacks += writebacks
        self._compact_lru()
        return RangeOutcome(hits, misses, writebacks)

    def invalidate_range(self, first: int, last: int) -> None:
        """Drop pages *first* through *last* without writeback (the
        backing buffer was freed).  The pages that stay keep their LRU
        order and dirty flags."""
        if last < first:
            return
        starts = self._starts
        index = bisect.bisect_right(starts, first) - 1
        if index < 0 or self._runs[starts[index]].end < first:
            index += 1  # no run holds *first*: start at the next one
        while index < len(starts) and starts[index] <= last:
            start = starts[index]
            page = max(start, first)
            end = min(self._runs[start].end, last)
            self._cut(index, page, end)
            self._resident -= end - page + 1
            if start < page:
                index += 1  # the piece before *first* stays
        self._compact_lru()

    def clear(self) -> int:
        """Drop everything; returns how many dirty pages needed writeback."""
        dirty = sum(run.end - start + 1 for start, run in self._runs.items() if run.dirty)
        self.writebacks += dirty
        self._starts.clear()
        self._runs.clear()
        self._lru.clear()
        self._resident = 0
        return dirty

    # -- run bookkeeping -----------------------------------------------------------

    def _cut(self, index: int, page: int, end: int) -> None:
        """Take pages *page*..*end* out of the run at ``starts[index]``;
        the pieces left on either side keep its stamp and dirty flag."""
        start = self._starts[index]
        run = self._runs[start]
        if end < run.end:
            self._runs[end + 1] = _Run(run.end, run.stamp, run.dirty)
            self._starts.insert(index + 1, end + 1)
            heapq.heappush(self._lru, (run.stamp, end + 1))
        if start < page:
            run.end = page - 1
        else:
            del self._runs[start]
            del self._starts[index]

    def _insert(self, page: int, end: int, stamp: int, dirty: bool) -> None:
        """Make *page*..*end* a resident run (nothing there is resident),
        joining the run just before it if that one ends at ``page - 1``
        with the same stamp and dirty flag."""
        starts = self._starts
        index = bisect.bisect_left(starts, page)
        if index:
            before = self._runs[starts[index - 1]]
            if before.end == page - 1 and before.stamp == stamp and before.dirty == dirty:
                before.end = end
                return
        starts.insert(index, page)
        self._runs[page] = _Run(end, stamp, dirty)
        heapq.heappush(self._lru, (stamp, page))

    def _compact_lru(self) -> None:
        """Rebuild the eviction heap from the runs once stale entries
        outnumber live ones; amortized O(1) per entry pushed."""
        if len(self._lru) > 2 * len(self._runs) + _HEAP_SLACK:
            self._lru = [(run.stamp, start) for start, run in self._runs.items()]
            heapq.heapify(self._lru)

    def _evict(self, count: int) -> int:
        """Evict the *count* least recently used pages; returns how many
        of them were dirty."""
        lru = self._lru
        runs = self._runs
        dirty = 0
        self._resident -= count
        while count:
            stamp, start = lru[0]
            run = runs.get(start)
            if run is None or run.stamp != stamp:
                heapq.heappop(lru)
                continue
            taken = min(count, run.end - start + 1)
            count -= taken
            if run.dirty:
                dirty += taken
            index = bisect.bisect_left(self._starts, start)
            del runs[start]
            if start + taken > run.end:
                heapq.heappop(lru)
                del self._starts[index]
            else:
                runs[start + taken] = run
                self._starts[index] = start + taken
                heapq.heapreplace(lru, (stamp, start + taken))
        return dirty
