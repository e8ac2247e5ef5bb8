"""The shared-pool byte-range allocator.

:class:`FreeListAllocator` is a sorted free list with first-fit
placement and eager coalescing.  It carves the physical pool box
(:class:`~repro.core.pool.PhysicalMemoryPool`) and is the arena the
:mod:`repro.mem.arena` gauntlet replays adversarial traces against.  It
allocates from an abstract byte range; callers bind the range to a
device.  It tracks the statistics the sizing policies use and exposes
the gauges (:attr:`~FreeListAllocator.largest_hole`,
:meth:`~FreeListAllocator.fragmentation`) the gauntlet scores, and
:meth:`~FreeListAllocator.relocate` is the left slide
:class:`~repro.core.migration.ArenaCompactor` compacts with.

Misuse diagnosis is typed: freeing a range that is currently free
raises :class:`~repro.errors.DoubleFreeError`, a handle the allocator
never granted raises :class:`~repro.errors.UnknownHandleError`, and a
handle whose block compaction has relocated raises
:class:`~repro.errors.StaleHandleError` — all three still subclass
:class:`~repro.errors.AllocationError`, so existing guards keep
working.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.errors import (
    AllocationError,
    ConfigError,
    DoubleFreeError,
    StaleHandleError,
    UnknownHandleError,
)


@dataclasses.dataclass(frozen=True)
class Allocation:
    """A granted range [offset, offset+size)."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


def handle_offset(allocation: Allocation | int) -> int:
    """Normalize a mixed ``Allocation | int`` handle to its offset."""
    return allocation.offset if isinstance(allocation, Allocation) else allocation


def classify_bad_free(
    offset: int,
    capacity: int,
    free_holes: list[tuple[int, int]],
    stale: dict[int, int],
) -> AllocationError:
    """The precise error for a free() whose offset is not live.

    *free_holes* is the allocator's (offset, size) hole list sorted by
    offset; *stale* maps relocated-away offsets to their new homes.
    """
    if offset in stale:
        return StaleHandleError(
            f"free() of offset {offset}: block was relocated to "
            f"{stale[offset]} by compaction (use the move map to re-resolve)"
        )
    if offset < 0 or offset >= capacity:
        return UnknownHandleError(
            f"free() of offset {offset} outside the managed range [0, {capacity})"
        )
    i = bisect.bisect_right(free_holes, (offset, capacity + 1)) - 1
    if i >= 0:
        hole_off, hole_size = free_holes[i]
        if hole_off <= offset < hole_off + hole_size:
            return DoubleFreeError(
                f"free() of offset {offset}: range is already free "
                f"(inside hole [{hole_off}, {hole_off + hole_size}))"
            )
    return UnknownHandleError(
        f"free() of offset {offset}: no allocation starts there "
        "(mid-block or never granted)"
    )


class FreeListAllocator:
    """Sorted-free-list first-fit allocator with coalescing.

    First fit always takes the lowest adequate hole, which is also the
    left slide :meth:`relocate` needs for compaction.
    """

    def __init__(self, capacity: int, align: int = 64) -> None:
        if capacity <= 0:
            raise ConfigError(f"allocator capacity must be positive, got {capacity}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise ConfigError(f"alignment must be a power of two, got {align}")
        self.capacity = capacity
        self.align = align
        #: sorted list of (offset, size) free holes
        self._free: list[tuple[int, int]] = [(0, capacity)]
        self._live: dict[int, int] = {}  # offset -> size
        #: old offset -> new offset for blocks compaction moved away
        self._stale: dict[int, int] = {}
        self.bytes_allocated = 0
        self.alloc_count = 0
        self.fail_count = 0

    # -- queries ------------------------------------------------------------

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_allocated

    @property
    def largest_hole(self) -> int:
        return max((size for _off, size in self._free), default=0)

    def fragmentation(self) -> float:
        """1 - largest_hole/free: 0 when free space is one hole."""
        free = self.bytes_free
        if free == 0:
            return 0.0
        return 1.0 - self.largest_hole / free

    def live_allocations(self) -> list[Allocation]:
        """Every live range, sorted by offset."""
        return [Allocation(off, size) for off, size in sorted(self._live.items())]

    # -- allocate / free -----------------------------------------------------

    def _round(self, size: int) -> int:
        return (size + self.align - 1) & ~(self.align - 1)

    def allocate(self, size: int) -> Allocation:
        """Grant an aligned range of at least *size* bytes."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        need = self._round(size)
        index = self._find_hole(need)
        if index is None:
            self.fail_count += 1
            raise AllocationError(
                f"no hole for {need} bytes (free={self.bytes_free}, "
                f"largest={self.largest_hole})"
            )
        offset, hole = self._free.pop(index)
        if hole > need:
            self._free.insert(index, (offset + need, hole - need))
        self._live[offset] = need
        # the spot is live again under a fresh handle: a stale mapping
        # recorded at this offset no longer describes anything
        self._stale.pop(offset, None)
        self.bytes_allocated += need
        self.alloc_count += 1
        return Allocation(offset, need)

    def _find_hole(self, need: int) -> int | None:
        for i, (_off, size) in enumerate(self._free):
            if size >= need:
                return i
        return None

    def free(self, allocation: Allocation | int) -> None:
        """Return a range; adjacent holes coalesce immediately."""
        offset = handle_offset(allocation)
        size = self._live.pop(offset, None)
        if size is None:
            raise classify_bad_free(offset, self.capacity, self._free, self._stale)
        self.bytes_allocated -= size
        i = bisect.bisect_left(self._free, (offset, 0))
        # merge with successor
        if i < len(self._free) and offset + size == self._free[i][0]:
            size += self._free[i][1]
            self._free.pop(i)
        # merge with predecessor
        if i > 0 and self._free[i - 1][0] + self._free[i - 1][1] == offset:
            prev_off, prev_size = self._free[i - 1]
            self._free[i - 1] = (prev_off, prev_size + size)
        else:
            self._free.insert(i, (offset, size))

    # -- compaction support --------------------------------------------------

    def relocate(self, allocation: Allocation | int) -> Allocation:
        """Move a live block to the lowest adequate hole (left slide).

        Returns the block's new grant — possibly at the same offset when
        no better hole exists.  When the block does move, its old offset
        becomes *stale*: a later ``free(old_offset)`` raises
        :class:`~repro.errors.StaleHandleError` instead of corrupting a
        bystander.  Used by
        :class:`~repro.core.migration.ArenaCompactor`, which charges the
        copy cost.
        """
        offset = handle_offset(allocation)
        size = self._live.get(offset)
        if size is None:
            raise classify_bad_free(offset, self.capacity, self._free, self._stale)
        self.free(offset)
        moved = self.allocate(size)
        self.alloc_count -= 1  # a relocation is not a new request
        if moved.offset != offset:
            self._stale[offset] = moved.offset
        return moved

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        total_free = sum(size for _o, size in self._free)
        assert total_free + self.bytes_allocated == self.capacity, "byte conservation"
        last_end = -1
        for offset, size in self._free:
            assert size > 0, "empty hole"
            assert offset > last_end, "holes sorted, disjoint, coalesced"
            last_end = offset + size
        for offset, size in self._live.items():
            for hoff, hsize in self._free:
                assert offset + size <= hoff or hoff + hsize <= offset, (
                    "live allocation overlaps a hole"
                )
