"""Physical-range allocators.

Two classic designs with identical interfaces:

* :class:`FreeListAllocator` — sorted free list with first-fit
  placement and eager coalescing.  Used for shared-region carving,
  where allocations are large and long-lived.  Best fit lives in
  :class:`repro.mem.arena.bestfit.BestFitAllocator`.
* :class:`BuddyAllocator` — power-of-two buddy system.  Used for the
  coherent region's small synchronization objects, where fast free/alloc
  and bounded fragmentation matter more than tight packing.

Both allocate from an abstract byte range; callers bind the range to a
device/region.  Both track the statistics used by the sizing policies
and expose the gauges (:attr:`largest_hole`, :meth:`fragmentation`)
the :mod:`repro.mem.arena` gauntlet scores.

They are the reference implementations of
:class:`repro.mem.arena.protocol.AllocatorProtocol`; the competing
strategies (size-class slab, per-tenant arenas, size-indexed best fit)
live in :mod:`repro.mem.arena` behind the same protocol.

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

    #: compaction can relocate live blocks (see :meth:`relocate`)
    supports_compaction: bool = True

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


class BuddyAllocator:
    """Power-of-two buddy allocator.

    Capacity is rounded down to a power of two; minimum block size is
    ``min_block``.  Frees recombine buddies eagerly.
    """

    #: buddy blocks are identified by their order-aligned offsets;
    #: moving one would change its identity, so no compaction
    supports_compaction: bool = False

    def __init__(self, capacity: int, min_block: int = 4096) -> None:
        if capacity < min_block:
            raise ConfigError(f"capacity {capacity} smaller than min block {min_block}")
        if min_block <= 0 or (min_block & (min_block - 1)) != 0:
            raise ConfigError(f"min_block must be a power of two, got {min_block}")
        self.min_block = min_block
        self.capacity = 1 << (capacity.bit_length() - 1)
        self._max_order = (self.capacity // min_block).bit_length() - 1
        #: free lists per order; order 0 == min_block
        self._free: list[set[int]] = [set() for _ in range(self._max_order + 1)]
        self._free[self._max_order].add(0)
        self._live: dict[int, int] = {}  # offset -> order
        self.bytes_allocated = 0
        self.alloc_count = 0
        self.fail_count = 0

    def _order_for(self, size: int) -> int:
        blocks = (size + self.min_block - 1) // self.min_block
        order = max(0, (blocks - 1).bit_length())
        return order

    def block_size(self, order: int) -> int:
        return self.min_block << order

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_allocated

    @property
    def largest_hole(self) -> int:
        """The largest free block (eager recombination keeps this honest)."""
        for order in range(self._max_order, -1, -1):
            if self._free[order]:
                return self.block_size(order)
        return 0

    def fragmentation(self) -> float:
        """1 - largest_block/free: 0 when free space is one max block."""
        free = self.bytes_free
        if free == 0:
            return 0.0
        return 1.0 - self.largest_hole / free

    def live_allocations(self) -> list[Allocation]:
        """Every live block, sorted by offset."""
        return [
            Allocation(off, self.block_size(order))
            for off, order in sorted(self._live.items())
        ]

    def allocate(self, size: int) -> Allocation:
        """Grant a block of the smallest power-of-two size >= *size*."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        order = self._order_for(size)
        if order > self._max_order:
            self.fail_count += 1
            raise AllocationError(f"{size} bytes exceeds buddy capacity {self.capacity}")
        # find the smallest order with a free block, splitting down
        source = order
        while source <= self._max_order and not self._free[source]:
            source += 1
        if source > self._max_order:
            self.fail_count += 1
            raise AllocationError(
                f"buddy allocator exhausted for {size} bytes (order {order})"
            )
        offset = min(self._free[source])  # deterministic choice
        self._free[source].discard(offset)
        while source > order:
            source -= 1
            buddy = offset + self.block_size(source)
            self._free[source].add(buddy)
        self._live[offset] = order
        granted = self.block_size(order)
        self.bytes_allocated += granted
        self.alloc_count += 1
        return Allocation(offset, granted)

    def free(self, allocation: Allocation | int) -> None:
        """Return a block; buddies recombine as far as possible."""
        offset = handle_offset(allocation)
        order = self._live.pop(offset, None)
        if order is None:
            raise self._classify_bad_free(offset)
        self.bytes_allocated -= self.block_size(order)
        while order < self._max_order:
            buddy = offset ^ self.block_size(order)
            if buddy not in self._free[order]:
                break
            self._free[order].discard(buddy)
            offset = min(offset, buddy)
            order += 1
        self._free[order].add(offset)

    def _classify_bad_free(self, offset: int) -> AllocationError:
        if offset < 0 or offset >= self.capacity or offset % self.min_block:
            return UnknownHandleError(
                f"free() of offset {offset}: not a block boundary inside "
                f"[0, {self.capacity})"
            )
        for order, blocks in enumerate(self._free):
            block = self.block_size(order)
            if (offset // block) * block in blocks:
                return DoubleFreeError(
                    f"free() of offset {offset}: range is already free "
                    f"(inside order-{order} block)"
                )
        return UnknownHandleError(
            f"free() of offset {offset}: no allocation starts there "
            "(mid-block or never granted)"
        )

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        free_bytes = sum(
            self.block_size(order) * len(blocks)
            for order, blocks in enumerate(self._free)
        )
        assert free_bytes + self.bytes_allocated == self.capacity, "byte conservation"
        for order, blocks in enumerate(self._free):
            for offset in blocks:
                assert offset % self.block_size(order) == 0, "block alignment"
