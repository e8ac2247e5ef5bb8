"""Size-class slab allocation (jemalloc-style bins).

Small requests round up to a *size class*; each class hands out fixed
blocks carved from *slabs* (contiguous runs allocated from the backing
range).  Per-class free-block lists make alloc/free O(log slabs), and a
slab whose blocks all come back retires to the backing range, so a
burst of one size cannot permanently strand memory against every other
size — the failure mode the churn and bimodal gauntlet traces provoke
in address-ordered allocators.

Class spacing follows jemalloc: every multiple of the quantum up to
four quanta, then four evenly spaced classes per power-of-two group
(bounded ~25 % internal fragmentation).  Requests above the largest
class bypass the bins and carve the backing range directly.

Determinism: slabs and blocks are chosen lowest-offset-first from
sorted structures; two same-seed gauntlet runs replay byte-identically.
"""

from __future__ import annotations

import bisect

from repro.errors import (
    AllocationError,
    ConfigError,
    DoubleFreeError,
    UnknownHandleError,
)
from repro.mem.allocator import Allocation, FreeListAllocator, handle_offset


def size_classes(quantum: int, largest: int) -> list[int]:
    """The jemalloc-style class ladder from *quantum* to *largest*."""
    classes = [quantum * i for i in range(1, 5) if quantum * i <= largest]
    group = quantum * 4
    while group < largest:
        step = group // 4
        for i in range(1, 5):
            size = group + step * i
            if size <= largest:
                classes.append(size)
        group *= 2
    return classes


class _Slab:
    """One carved run serving a single size class."""

    __slots__ = ("offset", "class_index", "block_bytes", "nblocks", "free_blocks")

    def __init__(self, offset: int, class_index: int, block_bytes: int, nblocks: int) -> None:
        self.offset = offset
        self.class_index = class_index
        self.block_bytes = block_bytes
        self.nblocks = nblocks
        #: free block offsets, sorted (lowest handed out first)
        self.free_blocks: list[int] = [
            offset + i * block_bytes for i in range(nblocks)
        ]

    @property
    def full(self) -> bool:
        return not self.free_blocks

    @property
    def empty(self) -> bool:
        return len(self.free_blocks) == self.nblocks


class SlabAllocator:
    """Size-class bins over slab runs, large requests passed through."""

    supports_compaction: bool = False

    def __init__(
        self,
        capacity: int,
        quantum: int = 64,
        slab_bytes: int = 16384,
        largest_class: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(f"allocator capacity must be positive, got {capacity}")
        if quantum <= 0 or (quantum & (quantum - 1)) != 0:
            raise ConfigError(f"quantum must be a power of two, got {quantum}")
        if slab_bytes % quantum or slab_bytes <= quantum:
            raise ConfigError(
                f"slab_bytes {slab_bytes} must be a multiple of quantum {quantum}"
            )
        if slab_bytes > capacity:
            raise ConfigError(f"slab_bytes {slab_bytes} exceeds capacity {capacity}")
        largest = largest_class if largest_class is not None else slab_bytes // 4
        if largest > slab_bytes:
            raise ConfigError(f"largest_class {largest} exceeds slab_bytes {slab_bytes}")
        self.capacity = capacity
        self.quantum = quantum
        self.slab_bytes = slab_bytes
        self.classes = size_classes(quantum, largest)
        if not self.classes:
            raise ConfigError("no size classes fit under largest_class")
        #: the backing range slabs and large allocations carve from
        self._range = FreeListAllocator(capacity, align=quantum)
        #: per class: sorted offsets of slabs with at least one free block
        self._partial: list[list[int]] = [[] for _ in self.classes]
        self._slabs: dict[int, _Slab] = {}  # slab offset -> slab
        self._blocks: dict[int, int] = {}  # live block offset -> slab offset
        self._large: dict[int, Allocation] = {}  # offset -> backing grant
        #: caller-granted bytes (class size per block, rounded for large)
        self.bytes_allocated = 0
        self.alloc_count = 0
        self.fail_count = 0
        self.slabs_carved = 0
        self.slabs_retired = 0

    # -- queries ------------------------------------------------------------

    @property
    def bytes_free(self) -> int:
        return self.capacity - self.bytes_allocated

    @property
    def largest_hole(self) -> int:
        """The largest backing-range hole: free blocks inside slabs can
        only serve their own class, so they do not count."""
        return self._range.largest_hole

    def fragmentation(self) -> float:
        """1 - largest_hole/free: free bytes stranded inside partly-used
        slabs count as fragmented, which is honest — they cannot back a
        large allocation."""
        free = self.bytes_free
        if free == 0:
            return 0.0
        return 1.0 - min(free, self.largest_hole) / free

    def live_allocations(self) -> list[Allocation]:
        """Every caller-live block, sorted by offset."""
        out = [
            Allocation(off, self._slabs[slab_off].block_bytes)
            for off, slab_off in self._blocks.items()
        ]
        out.extend(self._large.values())
        return sorted(out, key=lambda a: a.offset)

    def class_for(self, size: int) -> int | None:
        """Index of the smallest class holding *size*, None for large."""
        if size > self.classes[-1]:
            return None
        return bisect.bisect_left(self.classes, size)

    # -- allocate / free -----------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Grant a class block (small) or a direct carve (large)."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        index = self.class_for(size)
        if index is None:
            grant = self._range.allocate(size)
            self._large[grant.offset] = grant
            self.bytes_allocated += grant.size
            self.alloc_count += 1
            return grant
        block_bytes = self.classes[index]
        partial = self._partial[index]
        if not partial:
            try:
                run = self._range.allocate(self.slab_bytes)
            except AllocationError:
                self.fail_count += 1
                raise AllocationError(
                    f"no slab run for class {block_bytes}B "
                    f"(free={self.bytes_free}, largest hole={self.largest_hole})"
                ) from None
            slab = _Slab(run.offset, index, block_bytes, self.slab_bytes // block_bytes)
            self._slabs[run.offset] = slab
            bisect.insort(partial, run.offset)
            self.slabs_carved += 1
        slab = self._slabs[partial[0]]
        block = slab.free_blocks.pop(0)
        if slab.full:
            partial.pop(0)
        self._blocks[block] = slab.offset
        self.bytes_allocated += block_bytes
        self.alloc_count += 1
        return Allocation(block, block_bytes)

    def free(self, allocation: Allocation | int) -> None:
        """Return a block to its slab (retiring empty slabs) or a large
        carve to the backing range."""
        offset = handle_offset(allocation)
        large = self._large.pop(offset, None)
        if large is not None:
            self._range.free(offset)
            self.bytes_allocated -= large.size
            return
        slab_offset = self._blocks.pop(offset, None)
        if slab_offset is None:
            raise self._classify_bad_free(offset)
        slab = self._slabs[slab_offset]
        was_full = slab.full
        bisect.insort(slab.free_blocks, offset)
        self.bytes_allocated -= slab.block_bytes
        partial = self._partial[slab.class_index]
        if slab.empty:
            # every block came home: retire the run to the backing range
            if not was_full:
                partial.pop(bisect.bisect_left(partial, slab_offset))
            del self._slabs[slab_offset]
            self._range.free(slab_offset)
            self.slabs_retired += 1
        elif was_full:
            bisect.insort(partial, slab_offset)

    def _classify_bad_free(self, offset: int) -> AllocationError:
        if offset < 0 or offset >= self.capacity:
            return UnknownHandleError(
                f"free() of offset {offset} outside the managed range "
                f"[0, {self.capacity})"
            )
        for slab in self._slabs.values():
            if slab.offset <= offset < slab.offset + self.slab_bytes:
                if offset in slab.free_blocks:
                    return DoubleFreeError(
                        f"free() of offset {offset}: block is already free "
                        f"(class {slab.block_bytes}B slab at {slab.offset})"
                    )
                return UnknownHandleError(
                    f"free() of offset {offset}: not a block boundary of the "
                    f"class {slab.block_bytes}B slab at {slab.offset}"
                )
        try:
            self._range.free(offset)
        except DoubleFreeError as exc:
            return DoubleFreeError(str(exc))
        except AllocationError:
            pass
        else:  # pragma: no cover - defensive: untracked live range
            raise AllocationError(f"untracked backing range freed at {offset}")
        return UnknownHandleError(
            f"free() of offset {offset}: no allocation starts there "
            "(mid-block or never granted)"
        )

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        self._range.check_invariants()
        granted = sum(self._slabs[s].block_bytes for s in self._blocks.values())
        granted += sum(a.size for a in self._large.values())
        assert granted == self.bytes_allocated, "caller byte conservation"
        # every slab's blocks partition the slab run
        for slab in self._slabs.values():
            live = [
                off for off, s_off in self._blocks.items() if s_off == slab.offset
            ]
            assert len(live) + len(slab.free_blocks) == slab.nblocks, (
                "slab blocks lost"
            )
            for off in list(slab.free_blocks) + live:
                assert (off - slab.offset) % slab.block_bytes == 0, "block alignment"
                assert slab.offset <= off < slab.offset + self.slab_bytes, (
                    "block outside its slab"
                )
        # partial lists agree with slab state
        for index, partial in enumerate(self._partial):
            assert partial == sorted(partial), "partial list unsorted"
            for slab_offset in partial:
                slab = self._slabs[slab_offset]
                assert slab.class_index == index and not slab.full, (
                    "partial list out of sync"
                )
        spans = sorted((a.offset, a.end) for a in self.live_allocations())
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert e0 <= s1, "live allocations overlap"
