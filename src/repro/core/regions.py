"""Per-server private/shared/coherent region management.

"We logically partition each server's memory into private and shared
regions, where the union of all shared regions constitute the
disaggregated memory" (§1).  The split is *dynamic*: "the division of
private and shared regions on each server can vary over time and per
server" (§1) — that flexibility is Benefit 4 and the reason the 96 GB
vector of Figure 5 runs at all.

Layout within one server's DRAM (offsets grow left to right)::

    0 ............................................ capacity
    [ private ....... ][ coherent ][ shared ............ ]
                       ^ boundary moves as the split flexes

The shared region hands out page *frames* (not necessarily contiguous —
the page table, not physical adjacency, provides contiguity).  Shrinking
the shared region requires the frames beyond the new boundary to be
free; occupied ones must be migrated away first, which is exactly the
coupling between the sizing policy and the locality balancer that §5
describes.
"""

from __future__ import annotations

import typing as _t

from repro.errors import AllocationError, CapacityError, ConfigError
from repro.mem.layout import PageGeometry, Region, RegionKind

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.server import Server


class FreeLedger:
    """What placement sees, kept incrementally: per live server, free
    shared bytes plus the private bytes it could still flex in
    (``shared_free_bytes + growable_bytes()``), and their total.

    Regions post every change from their own mutators, so reading a
    server's entry or the pool-wide total is O(1) instead of a pass over
    every server's properties.  A crashed server's entry is dropped, and
    whatever its region posts afterwards is ignored.
    """

    __slots__ = ("by_server", "total")

    def __init__(self) -> None:
        self.by_server: dict[int, int] = {}
        self.total = 0

    def post(self, server_id: int, delta: int) -> None:
        by_server = self.by_server
        if server_id in by_server:
            by_server[server_id] += delta
            self.total += delta

    def drop(self, server_id: int) -> None:
        """Take a crashed server out (its memory is gone from the pool).
        Idempotent."""
        self.total -= self.by_server.pop(server_id, 0)


class RegionManager:
    """Owns one server's DRAM split and its shared-region frame pool."""

    def __init__(
        self,
        server: "Server",
        geometry: PageGeometry,
        shared_bytes: int,
        coherent_bytes: int = 0,
    ) -> None:
        page = geometry.page_bytes
        # Work within the page-aligned prefix of the DRAM; the sub-page
        # tail (capacity % page) stays permanently private.
        capacity = server.dram.capacity_bytes // page * page
        shared_bytes = min(shared_bytes, capacity) // page * page
        coherent_bytes = coherent_bytes // page * page
        if shared_bytes + coherent_bytes > capacity:
            raise CapacityError(
                f"shared {shared_bytes} + coherent {coherent_bytes} exceed "
                f"server DRAM {capacity}"
            )
        self.server = server
        self.geometry = geometry
        self.capacity_bytes = capacity
        self.coherent_bytes = coherent_bytes
        #: DRAM offset where the shared region starts (frames >= boundary)
        self._boundary = capacity - shared_bytes
        self._coherent_start = self._boundary - coherent_bytes
        #: free frames in the shared region, as DRAM offsets, each once.
        #: Ascending, except that freed frames are appended and sorted in
        #: only when an allocation or a shrink next needs the order: then
        #: taking the lowest (or highest) frames is one slice, and sorting
        #: a sorted run plus a few appended runs is a linear merge.
        self._free: list[int] = list(range(self._boundary, capacity, page))
        self._free_sorted = True
        self._used_frames: set[int] = set()
        self.resize_events = 0
        #: the pool's free ledger (see attach_ledger)
        self._ledger: FreeLedger | None = None
        self._flex_on_demand = True

    @property
    def flex_on_demand(self) -> bool:
        """The re-flex seam (§4.5).  True (default) keeps the paper's
        demand-driven behavior: allocation flexes private memory into
        the shared region implicitly (``ensure_shared_free``), and
        placement sees that headroom through ``growable_bytes``.
        False freezes the split: only the *explicit* resize API
        (``grow_shared`` / ``shrink_shared`` / ``set_shared_target``)
        moves the boundary — a static split, or one governed by an
        external control loop such as ``repro.scale``'s autoscaler."""
        return self._flex_on_demand

    @flex_on_demand.setter
    def flex_on_demand(self, on: bool) -> None:
        on = bool(on)
        if on == self._flex_on_demand:
            return
        self._flex_on_demand = on
        # growable headroom appears (or vanishes) all at once
        flexable = self.flexable_bytes()
        self._post(flexable if on else -flexable)

    # -- the pool's free ledger ----------------------------------------------------

    def attach_ledger(self, ledger: FreeLedger) -> None:
        """Enter this server into *ledger*; every later mutation posts
        its change there."""
        potential = self.shared_free_bytes + self.growable_bytes()
        ledger.by_server[self.server.server_id] = potential
        ledger.total += potential
        self._ledger = ledger

    def _post(self, delta: int) -> None:
        if self._ledger is not None:
            self._ledger.post(self.server.server_id, delta)

    # -- geometry ------------------------------------------------------------

    @property
    def page_bytes(self) -> int:
        return self.geometry.page_bytes

    @property
    def shared_bytes(self) -> int:
        return self.capacity_bytes - self._boundary

    @property
    def private_bytes(self) -> int:
        return self._coherent_start

    @property
    def shared_free_bytes(self) -> int:
        return len(self._free) * self.page_bytes

    @property
    def shared_used_bytes(self) -> int:
        return len(self._used_frames) * self.page_bytes

    @property
    def shared_utilization(self) -> float:
        """Used fraction of the shared region (1.0 when there is no
        shared region at all: a zero-byte split is maximally pressured)."""
        shared = self.shared_bytes
        return self.shared_used_bytes / shared if shared else 1.0

    def regions(self) -> list[Region]:
        """The current split as region descriptors."""
        out = [
            Region(self.server.server_id, RegionKind.PRIVATE, 0, self.private_bytes)
        ]
        if self.coherent_bytes:
            out.append(
                Region(
                    self.server.server_id,
                    RegionKind.COHERENT,
                    self._coherent_start,
                    self.coherent_bytes,
                )
            )
        out.append(
            Region(
                self.server.server_id,
                RegionKind.SHARED,
                self._boundary,
                self.shared_bytes,
            )
        )
        return out

    # -- frame pool --------------------------------------------------------------

    def allocate_frames(self, count: int, highest: bool = False) -> list[int]:
        """Take *count* free frames (lowest offsets first, deterministic).

        ``highest=True`` takes the top of the region instead — used by
        local compaction to move pages *away* from the boundary a
        shrink is about to reclaim."""
        if count < 0:
            raise AllocationError(f"negative frame count {count}")
        free = self._sorted_free()
        if count > len(free):
            raise AllocationError(
                f"server {self.server.server_id}: need {count} frames, "
                f"{len(free)} free"
            )
        if highest:
            split = len(free) - count
            frames = free[split:][::-1]
            del free[split:]
        else:
            frames = free[:count]
            del free[:count]
        self._used_frames.update(frames)
        self._post(-count * self.page_bytes)
        return frames

    def free_frames(self, frames: _t.Iterable[int]) -> None:
        """Return frames to the pool.  A frame not in use (or named twice)
        raises, and the frames before it stay freed."""
        frames = list(frames)
        used = self._used_frames
        if not used.issuperset(frames) or len(set(frames)) != len(frames):
            seen: set[int] = set()
            for i, frame in enumerate(frames):
                if frame not in used or frame in seen:
                    self._release(frames[:i])
                    raise AllocationError(
                        f"server {self.server.server_id}: frame {frame} not in use"
                    )
                seen.add(frame)
        self._release(frames)

    def _release(self, frames: list[int]) -> None:
        """Move distinct in-use *frames* back to the free list."""
        self._used_frames.difference_update(frames)
        self._free += frames
        self._free_sorted = False
        self._post(len(frames) * self.page_bytes)

    def _sorted_free(self) -> list[int]:
        if not self._free_sorted:
            self._free.sort()
            self._free_sorted = True
        return self._free

    # -- dynamic resizing (§4.5) ---------------------------------------------------

    def grow_shared(self, nbytes: int) -> None:
        """Move the boundary down, converting private memory to shared."""
        page = self.page_bytes
        if nbytes % page:
            raise ConfigError(f"grow must be page-aligned, got {nbytes}")
        if nbytes > self.private_bytes:
            raise CapacityError(
                f"cannot grow shared by {nbytes}: only {self.private_bytes} private"
            )
        new_boundary = self._boundary - nbytes
        # every new frame lies below every shared one: prepending keeps
        # the free list's order
        self._free[:0] = range(new_boundary, self._boundary, page)
        self._boundary = new_boundary
        self._coherent_start -= nbytes
        self.resize_events += 1
        if not self._flex_on_demand:  # flexing moves growable into free
            self._post(nbytes)

    def shrink_shared(self, nbytes: int) -> None:
        """Move the boundary up, returning memory to private use.

        Fails unless every frame being reclaimed is free — callers must
        evacuate first (see :meth:`frames_blocking_shrink`).
        """
        page = self.page_bytes
        if nbytes % page:
            raise ConfigError(f"shrink must be page-aligned, got {nbytes}")
        if nbytes > self.shared_bytes:
            raise CapacityError(
                f"cannot shrink shared by {nbytes}: only {self.shared_bytes} shared"
            )
        new_boundary = self._boundary + nbytes
        blockers = [
            f for f in range(self._boundary, new_boundary, page) if f in self._used_frames
        ]
        if blockers:
            raise CapacityError(
                f"shrink blocked by {len(blockers)} occupied frames; migrate "
                "them away first"
            )
        # all free, and below every other shared frame: the lowest ones
        del self._sorted_free()[: nbytes // page]
        self._boundary = new_boundary
        self._coherent_start += nbytes
        self.resize_events += 1
        if not self._flex_on_demand:
            self._post(-nbytes)

    def frames_blocking_shrink(self, nbytes: int) -> list[int]:
        """Occupied frames that must be evacuated before a shrink."""
        page = self.page_bytes
        new_boundary = self._boundary + min(nbytes, self.shared_bytes)
        return sorted(
            f for f in range(self._boundary, new_boundary, page) if f in self._used_frames
        )

    def growable_bytes(self) -> int:
        """Private memory that could still be flexed into the pool.

        Zero when ``flex_on_demand`` is off: a frozen split offers the
        allocator only what is actually free in the shared region."""
        if not self._flex_on_demand:
            return 0
        return self.private_bytes // self.page_bytes * self.page_bytes

    def flexable_bytes(self) -> int:
        """True private headroom, regardless of ``flex_on_demand`` —
        what an explicit re-flex (autoscaler) could still convert."""
        return self.private_bytes // self.page_bytes * self.page_bytes

    def ensure_shared_free(self, nbytes: int) -> None:
        """Grow the shared region (if needed and possible) until at least
        *nbytes* of shared memory is free — the demand side of the
        paper's dynamic private/shared ratio."""
        deficit = nbytes - self.shared_free_bytes
        if deficit <= 0:
            return
        if not self._flex_on_demand:
            raise CapacityError(
                f"server {self.server.server_id}: shared region is frozen "
                f"(flex_on_demand off) with only {self.shared_free_bytes} "
                f"bytes free; {nbytes} needed"
            )
        page = self.page_bytes
        grow = -(-deficit // page) * page
        if grow > self.private_bytes:
            raise CapacityError(
                f"server {self.server.server_id}: cannot free {nbytes} shared "
                f"bytes (private has only {self.private_bytes})"
            )
        self.grow_shared(grow)

    def set_shared_target(self, target_bytes: int) -> int:
        """Best-effort resize toward *target_bytes* of shared memory.

        Returns the achieved shared size.  Shrinks stop at the first
        occupied frame (evacuation is the balancer's job, not ours).
        """
        page = self.page_bytes
        target = (target_bytes // page) * page
        current = self.shared_bytes
        if target > current:
            grow = min(target - current, (self.private_bytes // page) * page)
            if grow:
                self.grow_shared(grow)
        elif target < current:
            want = current - target
            page_count = want // page
            achievable = 0
            for i in range(page_count):
                frame = self._boundary + i * page
                if frame in self._used_frames:
                    break
                achievable += page
            if achievable:
                self.shrink_shared(achievable)
        return self.shared_bytes
