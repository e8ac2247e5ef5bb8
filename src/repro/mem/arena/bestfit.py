"""Best fit, tuned: a size-indexed free list with eager coalescing.

Best fit over one address-sorted hole list, as
:class:`~repro.mem.allocator.FreeListAllocator` keeps, would scan the
whole list on every allocation — O(holes).  This variant keeps the
holes in *two* indexes so both hot paths are logarithmic:

* ``_by_size`` — holes as ``(size, offset)`` pairs, sorted, so the
  tightest adequate hole is one :func:`bisect.bisect_left` away (ties
  break toward the lowest offset, keeping placement deterministic and
  address-ordered);
* ``_starts`` / ``_ends`` — offset-keyed hole maps, so a free coalesces
  with both neighbors in O(1) lookups plus O(log n) index maintenance.

Same protocol, same typed misuse errors, same compaction support as
the reference free list — only the data structures differ, which is
exactly what the gauntlet is for measuring.
"""

from __future__ import annotations

import bisect

from repro.errors import AllocationError, ConfigError
from repro.mem.allocator import Allocation, classify_bad_free, handle_offset


class BestFitAllocator:
    """O(log n) best-fit over a size-indexed hole list."""

    supports_compaction: bool = True

    def __init__(self, capacity: int, align: int = 64) -> None:
        if capacity <= 0:
            raise ConfigError(f"allocator capacity must be positive, got {capacity}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise ConfigError(f"alignment must be a power of two, got {align}")
        self.capacity = capacity
        self.align = align
        #: holes as (size, offset), sorted — the best-fit index
        self._by_size: list[tuple[int, int]] = [(capacity, 0)]
        #: hole offset -> size
        self._starts: dict[int, int] = {0: capacity}
        #: hole end -> offset (for predecessor coalescing)
        self._ends: dict[int, int] = {capacity: 0}
        self._live: dict[int, int] = {}  # offset -> size
        self._stale: dict[int, int] = {}  # old offset -> new offset
        #: when True, placement slides left (lowest adequate hole)
        #: instead of tightest — compaction's placement rule
        self._lowest_fit = False
        self.bytes_allocated = 0
        self.alloc_count = 0
        self.fail_count = 0

    # -- queries ------------------------------------------------------------

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_allocated

    @property
    def largest_hole(self) -> int:
        return self._by_size[-1][0] if self._by_size else 0

    def fragmentation(self) -> float:
        """1 - largest_hole/free: 0 when free space is one hole."""
        free = self.bytes_free
        if free == 0:
            return 0.0
        return 1.0 - self.largest_hole / free

    def live_allocations(self) -> list[Allocation]:
        """Every live range, sorted by offset."""
        return [Allocation(off, size) for off, size in sorted(self._live.items())]

    # -- hole bookkeeping ----------------------------------------------------

    def _add_hole(self, offset: int, size: int) -> None:
        bisect.insort(self._by_size, (size, offset))
        self._starts[offset] = size
        self._ends[offset + size] = offset

    def _remove_hole(self, offset: int, size: int) -> None:
        index = bisect.bisect_left(self._by_size, (size, offset))
        assert self._by_size[index] == (size, offset), "hole index out of sync"
        self._by_size.pop(index)
        del self._starts[offset]
        del self._ends[offset + size]

    def _round(self, size: int) -> int:
        return (size + self.align - 1) & ~(self.align - 1)

    # -- allocate / free -----------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Grant the tightest adequate hole (lowest offset on ties)."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        need = self._round(size)
        chosen: tuple[int, int] | None = None
        if self._lowest_fit:
            for hole_offset in sorted(self._starts):
                if self._starts[hole_offset] >= need:
                    chosen = (self._starts[hole_offset], hole_offset)
                    break
        else:
            index = bisect.bisect_left(self._by_size, (need, -1))
            if index < len(self._by_size):
                chosen = self._by_size[index]
        if chosen is None:
            self.fail_count += 1
            raise AllocationError(
                f"no hole for {need} bytes (free={self.bytes_free}, "
                f"largest={self.largest_hole})"
            )
        hole_size, offset = chosen
        self._remove_hole(offset, hole_size)
        if hole_size > need:
            self._add_hole(offset + need, hole_size - need)
        self._live[offset] = need
        self._stale.pop(offset, None)
        self.bytes_allocated += need
        self.alloc_count += 1
        return Allocation(offset, need)

    def free(self, allocation: Allocation | int) -> None:
        """Return a range; both neighbors coalesce in O(1) lookups."""
        offset = handle_offset(allocation)
        size = self._live.pop(offset, None)
        if size is None:
            holes = sorted((off, sz) for off, sz in self._starts.items())
            raise classify_bad_free(offset, self.capacity, holes, self._stale)
        self.bytes_allocated -= size
        # merge with successor hole
        successor = self._starts.get(offset + size)
        if successor is not None:
            succ_size = self._starts[offset + size]
            self._remove_hole(offset + size, succ_size)
            size += succ_size
        # merge with predecessor hole
        pred_offset = self._ends.get(offset)
        if pred_offset is not None:
            pred_size = self._starts[pred_offset]
            self._remove_hole(pred_offset, pred_size)
            offset = pred_offset
            size += pred_size
        self._add_hole(offset, size)

    # -- compaction support --------------------------------------------------

    def relocate(self, allocation: Allocation | int) -> Allocation:
        """Move a live block to the lowest adequate hole (left slide).

        Routed through :meth:`free`/:meth:`allocate` so the shadow
        trackers in :mod:`repro.check.sanitizers` stay consistent; a
        moved block's old offset becomes stale (see
        :class:`~repro.errors.StaleHandleError`).
        """
        offset = handle_offset(allocation)
        size = self._live.get(offset)
        if size is None:
            holes = sorted((off, sz) for off, sz in self._starts.items())
            raise classify_bad_free(offset, self.capacity, holes, self._stale)
        self.free(offset)
        self._lowest_fit = True
        try:
            moved = self.allocate(size)
        finally:
            self._lowest_fit = False
        self.alloc_count -= 1  # a relocation is not a new request
        if moved.offset != offset:
            self._stale[offset] = moved.offset
        return moved

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        assert len(self._by_size) == len(self._starts) == len(self._ends), (
            "hole indexes disagree"
        )
        total_free = sum(size for size, _off in self._by_size)
        assert total_free + self.bytes_allocated == self.capacity, "byte conservation"
        indexed = set(self._by_size)
        last_end = -1
        for offset in sorted(self._starts):
            size = self._starts[offset]
            assert size > 0, "empty hole"
            assert offset > last_end, "holes sorted, disjoint, coalesced"
            assert (size, offset) in indexed, "size index out of sync"
            assert self._ends.get(offset + size) == offset, "end index out of sync"
            last_end = offset + size
        spans = sorted((off, off + size) for off, size in self._live.items())
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert e0 <= s1, "live allocations overlap"
