"""Local-memory-as-cache model for the Physical-cache configuration.

The paper's first physical-pool setup "uses local memory as cache for
the pooled memory"; "caching incurs an upfront memcpy() overhead but
provides faster subsequent reads" (§4.1).  We model that cache as a
page-granular LRU: on a miss the page is copied from the pool into
local DRAM (the upfront memcpy — traffic charged to the fabric link and
the local channel), after which reads hit local DRAM until eviction.

The cache itself is a pure state machine with no simulator dependency —
the workload driver charges the fill/writeback traffic it reports.
That keeps replacement policy behaviour directly unit-testable.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.units import mib


@dataclasses.dataclass(frozen=True)
class RangeOutcome:
    """Result of touching a run of pages."""

    hit_pages: int
    miss_pages: int
    writeback_pages: int


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
        #: page_id -> dirty flag; insertion order is LRU order (oldest first)
        self._frames: collections.OrderedDict[int, bool] = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- queries ------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def capacity_bytes(self) -> int:
        return self.frame_count * self.page_bytes

    def contains(self, page_id: int) -> bool:
        return page_id in self._frames

    # -- accesses ---------------------------------------------------------------

    def access(self, page_id: int, write: bool = False) -> bool:
        """Touch one page; returns True on hit.  Misses insert the page,
        evicting LRU (and counting a writeback if the victim was dirty)."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            if write:
                self._frames[page_id] = True
            return True
        self.misses += 1
        if len(self._frames) >= self.frame_count:
            _victim, dirty = self._frames.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        self._frames[page_id] = write
        return False

    def access_range(self, offset: int, size: int, write: bool = False) -> RangeOutcome:
        """Touch every page overlapping [offset, offset+size)."""
        if size < 0:
            raise ConfigError(f"negative access size {size}")
        if size == 0:
            return RangeOutcome(0, 0, 0)
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        writebacks_before = self.writebacks
        hits = 0
        misses = 0
        for page_id in range(first, last + 1):
            if self.access(page_id, write=write):
                hits += 1
            else:
                misses += 1
        return RangeOutcome(hits, misses, self.writebacks - writebacks_before)

    def invalidate_range(self, first: int, last: int) -> None:
        """Drop pages *first* through *last* without writeback (the
        backing buffer was freed).  Walks whichever is shorter, the range
        or the resident pages; the pages that stay keep their LRU order
        and dirty flags."""
        frames = self._frames
        if last - first < len(frames):
            doomed: _t.Iterable[int] = range(first, last + 1)
        else:
            doomed = [p for p in frames if first <= p <= last]
        for page_id in doomed:
            frames.pop(page_id, None)

    def clear(self) -> int:
        """Drop everything; returns how many dirty pages needed writeback."""
        dirty = sum(1 for d in self._frames.values() if d)
        self.writebacks += dirty
        self._frames.clear()
        return dirty
