"""Memory pools: the logical pool (the paper's proposal) and the
physical pool baselines it is evaluated against.

All pools share one API:

* :meth:`MemoryPool.allocate` / :meth:`MemoryPool.free` — buffers in a
  global logical address space,
* :meth:`MemoryPool.access_segments` — the *performance* data path: turn
  a buffer range into the chain-of-capacities segments a
  :class:`~repro.hw.cpu.Core` streams (who owns the bytes, what fabric
  hops they cross, at what loaded latency),
* :meth:`MemoryPool.read` / :meth:`MemoryPool.write` — the *functional*
  data path moving real bytes (used by the correctness tests, the
  KV-store workload, and the failure-recovery machinery);
  :meth:`LogicalMemoryPool.timed` times the same page-by-page access
  without moving bytes (the tenant drivers' data ops).

The differences between the three §4.1 configurations live entirely in
how these methods resolve:

====================  =========================  =============================
                      LogicalMemoryPool          PhysicalMemoryPool
====================  =========================  =============================
bytes live in         servers' shared regions    the pool box
local accesses        whenever the extent         never (pool is always
                      resolves to the requester   across the fabric)
allocation limit      sum of shared regions       pool box capacity
                      (flexible, §4.5)            (fixed at deployment)
caching               n/a (already local)         optional local page cache
                                                  (the "Physical cache" setup)
====================  =========================  =============================
"""

from __future__ import annotations

import abc
import functools
import types
import typing as _t

from repro.core.addressing import AddressTranslator
from repro.core.buffer import Buffer
from repro.core.regions import FreeLedger, RegionManager
from repro.errors import (
    AddressError,
    CapacityError,
    ConfigError,
    InfeasibleWorkloadError,
    MemoryFailureError,
    MigrationError,
)
from repro.fabric.transport import fixed_payload
from repro.hw.cache import PageCache
from repro.hw.cpu import AccessSegment
from repro.mem.allocator import FreeListAllocator
from repro.mem.interleave import LocalFirstPlacement, PlacementPolicy
from repro.mem.layout import GlobalAddress, PageGeometry
from repro.mem.page_table import Protection
from repro.topology.builder import Deployment
from repro.topology.specs import DeploymentKind

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.profiling import AccessProfiler
    from repro.sim.process import Process


class MemoryPool(abc.ABC):
    """Common machinery for every pool flavor."""

    def __init__(self, deployment: Deployment, geometry: PageGeometry | None = None) -> None:
        self.deployment = deployment
        self.engine = deployment.engine
        self.fluid = deployment.fluid
        self.switch = deployment.switch
        self.transport = deployment.transport
        self.geometry = geometry or PageGeometry()
        self.profiler: "AccessProfiler | None" = None
        self._buffers: dict[int, Buffer] = {}  # base address -> live buffer
        self._next_extent = 0

    # -- logical address space -------------------------------------------------

    def _take_contiguous_extents(self, count: int) -> list[int]:
        """Reserve a contiguous run of extent indices so buffers get
        contiguous logical addresses (bump allocation; freed runs are
        reused only when exactly contiguous)."""
        base = self._next_extent
        self._next_extent += count
        return list(range(base, base + count))

    def attach_profiler(self, profiler: "AccessProfiler") -> None:
        """Register the profiler that access planning feeds."""
        self.profiler = profiler

    @property
    def live_buffers(self) -> list[Buffer]:
        return [self._buffers[k] for k in sorted(self._buffers)]

    # -- abstract API --------------------------------------------------------

    @abc.abstractmethod
    def allocate(
        self,
        size: int,
        requester_id: int | None = None,
        name: str = "",
    ) -> Buffer:
        """Allocate *size* bytes of pooled memory; raises
        :class:`CapacityError` when the pool cannot hold them."""

    @abc.abstractmethod
    def free(self, buffer: Buffer) -> None:
        """Release a buffer's backing."""

    @abc.abstractmethod
    def access_segments(
        self,
        requester_id: int,
        buffer: Buffer,
        offset: int = 0,
        size: int | None = None,
        write: bool = False,
    ) -> list[AccessSegment]:
        """Build the streaming plan for one access to [offset, offset+size)."""

    @abc.abstractmethod
    def read(self, requester_id: int, buffer: Buffer, offset: int, size: int) -> "Process":
        """Functional read; the returned process yields the bytes."""

    @abc.abstractmethod
    def write(self, requester_id: int, buffer: Buffer, offset: int, data: bytes) -> "Process":
        """Functional write; the returned process yields bytes written.

        The payload is fixed at the call: changing *data* afterwards does
        not change what is stored."""

    @abc.abstractmethod
    def locality_fraction(self, requester_id: int, buffer: Buffer) -> float:
        """Fraction of the buffer resolving to *requester_id*'s DRAM."""

    @property
    @abc.abstractmethod
    def pooled_bytes(self) -> int:
        """Total disaggregated capacity."""

    @property
    @abc.abstractmethod
    def pooled_free_bytes(self) -> int:
        """Unallocated disaggregated capacity."""


class LogicalMemoryPool(MemoryPool):
    """The paper's proposal: the pool is the union of per-server shared
    regions; placement decides which server backs each extent."""

    def __init__(
        self,
        deployment: Deployment,
        geometry: PageGeometry | None = None,
        placement: PlacementPolicy | None = None,
        shared_fraction: float = 1.0,
        coherent_bytes: int = 0,
    ) -> None:
        if deployment.kind is not DeploymentKind.LOGICAL:
            raise ConfigError(
                f"LogicalMemoryPool needs a logical deployment, got {deployment.kind.value}"
            )
        if not 0.0 < shared_fraction <= 1.0:
            raise ConfigError(f"shared_fraction must be in (0, 1], got {shared_fraction}")
        super().__init__(deployment, geometry)
        self.placement = placement or LocalFirstPlacement()
        self.translator = AddressTranslator(self.geometry)
        self.regions: dict[int, RegionManager] = {}
        #: live servers' free + growable bytes, posted by the regions
        self._ledger = FreeLedger()
        #: what placement reads: the ledger itself, live and read-only
        self._free_view = types.MappingProxyType(self._ledger.by_server)
        page = self.geometry.page_bytes
        for server in deployment.servers:
            self.translator.register_server(server.server_id)
            aligned = server.dram.capacity_bytes // page * page
            coherent = coherent_bytes // page * page
            shared = int(server.dram.capacity_bytes * shared_fraction) // page * page
            shared = min(shared, aligned - coherent)  # leave room for the coherent carve
            region = RegionManager(
                server, self.geometry, shared_bytes=shared, coherent_bytes=coherent
            )
            self.regions[server.server_id] = region
            if server.alive:
                region.attach_ledger(self._ledger)
                # the hook holds the small ledger, not the region: a
                # server must not keep a discarded pool's frames alive
                server.on_crash(functools.partial(self._ledger.drop, server.server_id))
        self._buffer_extents: dict[int, list[int]] = {}
        #: extents a mover is copying: a free() racing the move defers
        #: the teardown to the mover instead of yanking pages out from
        #: under an in-flight copy
        self._pinned_extents: set[int] = set()
        self._doomed_extents: set[int] = set()

    # -- capacity -----------------------------------------------------------------

    @property
    def pooled_bytes(self) -> int:
        return sum(r.shared_bytes for r in self.regions.values())

    @property
    def pooled_free_bytes(self) -> int:
        return sum(r.shared_free_bytes for r in self.regions.values())

    def potential_free_by_server(self) -> dict[int, int]:
        """Free shared capacity *plus* private memory each live server
        could still flex into the pool — what placement sees, since the
        ratio is dynamic (§4.5).  A copy of the incremental ledger."""
        return dict(self._ledger.by_server)

    @property
    def potential_free_bytes(self) -> int:
        """Sum of :meth:`potential_free_by_server`, read in O(1)."""
        return self._ledger.total

    # -- allocate / free --------------------------------------------------------

    def allocate(
        self,
        size: int,
        requester_id: int | None = None,
        name: str = "",
        placement: PlacementPolicy | None = None,
    ) -> Buffer:
        """Allocate pooled memory.

        *placement* overrides the pool's default policy for this one
        buffer — e.g. a distributed consumer asks for round-robin while
        the pool default stays local-first."""
        if size <= 0:
            raise CapacityError(f"allocation size must be positive, got {size}")
        extent_bytes = self.geometry.extent_bytes
        extent_count = -(-size // extent_bytes)
        offered = self._ledger.total
        if extent_count * extent_bytes > offered:
            raise InfeasibleWorkloadError(
                f"buffer of {size} bytes needs {extent_count} extents "
                f"({extent_count * extent_bytes} bytes); pool can offer at "
                f"most {offered}"
            )
        policy = placement or self.placement
        owners = policy.place(extent_count, extent_bytes, self._free_view, requester_id)
        extents = self._take_contiguous_extents(extent_count)
        pages_per_extent = self.geometry.pages_per_extent
        for extent_index, owner in zip(extents, owners):
            # the ratio is dynamic: flex private memory into the shared
            # region on demand (§4.5)
            self.regions[owner].ensure_shared_free(extent_bytes)
            frames = self.regions[owner].allocate_frames(pages_per_extent)
            self.translator.global_map.claim(extent_index, owner)
            self.translator.page_table(owner).map_extent(extent_index, frames, Protection.RW)
        base = GlobalAddress(extents[0] * extent_bytes)
        buffer = Buffer(base=base, size=size, geometry=self.geometry, name=name)
        self._buffers[base.value] = buffer
        self._buffer_extents[base.value] = extents
        return buffer

    def free(self, buffer: Buffer) -> None:
        extents = self._buffer_extents.pop(buffer.base.value, None)
        if extents is None:
            raise AddressError(f"buffer {buffer!r} is not live in this pool")
        for extent_index in extents:
            if extent_index in self._pinned_extents:
                # a mover holds this extent; it tears the extent down
                # (and returns the capacity) when it unpins
                self._doomed_extents.add(extent_index)
                continue
            self._teardown_extent(extent_index)
        del self._buffers[buffer.base.value]
        buffer.freed = True

    def _teardown_extent(self, extent_index: int) -> None:
        """Unmap one extent, then give back its frames and its index."""
        owner = self.translator.global_map.lookup_extent(extent_index).server_id
        frames = self.translator.page_table(owner).unmap_extent(extent_index)
        self.regions[owner].free_frames(frames)
        self.translator.global_map.release(extent_index)

    def _unpin_extent(self, extent_index: int) -> None:
        """Drop a mover's pin; run the teardown a racing free deferred."""
        self._pinned_extents.discard(extent_index)
        if extent_index in self._doomed_extents:
            self._doomed_extents.discard(extent_index)
            self._teardown_extent(extent_index)

    # -- performance data path ------------------------------------------------------

    def access_segments(
        self,
        requester_id: int,
        buffer: Buffer,
        offset: int = 0,
        size: int | None = None,
        write: bool = False,
    ) -> list[AccessSegment]:
        size = buffer.size - offset if size is None else size
        addr, _ = buffer.slice_addresses(offset, size)
        requester = self.deployment.server(requester_id)
        segments: list[AccessSegment] = []
        for owner, start, length in self.translator.segments_by_owner(addr, size):
            owner_server = self.deployment.server(owner)
            if not owner_server.alive:
                raise MemoryFailureError(
                    f"extent owner {owner_server.name} is down", server_id=owner
                )
            if write:
                route = self.switch.write_route(requester.name, owner_server.name)
            else:
                route = self.switch.read_route(requester.name, owner_server.name)
            segments.append(
                AccessSegment(
                    path=route.path,
                    nbytes=length,
                    curve=route.curve,
                    label="local" if owner == requester_id else f"remote{owner}",
                )
            )
            if self.profiler is not None:
                # attribute bytes to each extent the run covers, so the
                # balancer sees per-extent heat rather than run-start heat
                for extent_index in self.geometry.extents_covering(start, length):
                    extent_start = extent_index * self.geometry.extent_bytes
                    extent_end = extent_start + self.geometry.extent_bytes
                    covered = min(extent_end, start + length) - max(extent_start, start)
                    self.profiler.record(
                        requester_id,
                        extent_index,
                        covered,
                        remote=owner != requester_id,
                    )
        return segments

    def locality_fraction(self, requester_id: int, buffer: Buffer) -> float:
        local = 0
        for owner, _start, length in self.translator.segments_by_owner(
            buffer.base, buffer.size
        ):
            if owner == requester_id:
                local += length
        return local / buffer.size

    def extents_by_owner(self, buffer: Buffer) -> dict[int, list[int]]:
        """owner server -> extent indices of this buffer (for compute
        shipping's shard discovery)."""
        out: dict[int, list[int]] = {}
        for extent_index in self._buffer_extents[buffer.base.value]:
            owner = self.translator.global_map.lookup_extent(extent_index).server_id
            out.setdefault(owner, []).append(extent_index)
        return out

    # -- functional data path ----------------------------------------------------

    def read(self, requester_id: int, buffer: Buffer, offset: int, size: int) -> "Process":
        addr, _ = buffer.slice_addresses(offset, size)
        return self.engine.process(
            self._read_body(requester_id, addr, size), name="lmp.read"
        )

    def write(self, requester_id: int, buffer: Buffer, offset: int, data: bytes) -> "Process":
        """Functional write, page by page; the payload is fixed at the call
        and each page op stores a zero-copy slice of it."""
        payload = fixed_payload(data)
        addr, _ = buffer.slice_addresses(offset, len(payload))
        return self.engine.process(
            self._write_body(requester_id, addr, payload), name="lmp.write"
        )

    def timed(
        self, requester_id: int, buffer: Buffer, offset: int, size: int, write: bool
    ) -> "Process":
        """A read or write of [offset, offset+size) timed page by page
        exactly as :meth:`read`/:meth:`write` are (translation, crash
        check, profiler, transport), that moves no bytes: a timed write
        leaves the range's contents as they were.  The process returns
        *size*."""
        addr, _ = buffer.slice_addresses(offset, size)
        return self.engine.process(
            self._timed_body(requester_id, addr, size, write),
            name="lmp.write" if write else "lmp.read",
        )

    def _pages(
        self, requester_id: int, addr: GlobalAddress, size: int, write: bool
    ) -> _t.Iterator[tuple[str, int, int, int]]:
        """The one page walk of the data path.  For each page chunk of
        [addr, addr+size): translate it (marking it dirty for a migration
        when *write*), refuse a crashed owner and record it with the
        profiler, then yield ``(owner name, DRAM offset, bytes before the
        chunk, chunk length)``.  Lazy: a chunk is translated only after
        the previous one's access completed."""
        geometry = self.geometry
        start = pos = int(addr)
        end = pos + size
        while pos < end:
            take = min(geometry.page_bytes - geometry.page_offset(pos), end - pos)
            translation = self.translator.translate(requester_id, pos, write=write)
            owner_server = self.deployment.server(translation.server_id)
            if not owner_server.alive:
                raise MemoryFailureError(
                    f"{'write' if write else 'read'} touched crashed server "
                    f"{owner_server.name}",
                    server_id=translation.server_id,
                )
            if self.profiler is not None:
                self.profiler.record(
                    requester_id,
                    geometry.extent_index(pos),
                    take,
                    remote=translation.remote,
                )
            yield owner_server.name, translation.dram_offset, pos - start, take
            pos += take

    def _read_body(self, requester_id: int, addr: GlobalAddress, size: int):
        requester = self.deployment.server(requester_id).name
        chunks: list[bytes] = []
        for owner, dram_offset, _, take in self._pages(requester_id, addr, size, False):
            chunks.append((yield self.transport.read(requester, owner, dram_offset, take)))
        return b"".join(chunks)

    def _write_body(self, requester_id: int, addr: GlobalAddress, data: memoryview):
        requester = self.deployment.server(requester_id).name
        for owner, dram_offset, done, take in self._pages(
            requester_id, addr, len(data), True
        ):
            yield self.transport.write(
                requester, owner, dram_offset, data[done : done + take]
            )
        return len(data)

    def _timed_body(self, requester_id: int, addr: GlobalAddress, size: int, write: bool):
        requester = self.deployment.server(requester_id).name
        for owner, dram_offset, _, take in self._pages(requester_id, addr, size, write):
            yield self.transport.timed(requester, owner, dram_offset, take, write)
        return size

    # -- migration mechanism (policy lives in repro.core.migration) ----------------

    def migrate_extent(self, extent_index: int, dst_server_id: int) -> "Process":
        """Move one extent's pages to *dst_server_id*, preserving logical
        addresses.  Two phases: bulk copy (concurrent writes allowed,
        tracked via dirty bits), then a bounded re-copy loop and an
        atomic commit (remap + global-map generation bump).

        A *dst_server_id* that already owns the extent makes this a local
        move (compaction): the pages go to the owner's highest free
        frames, away from the boundary a shrink reclaims, and the global
        map is left alone because the owner does not change.  The
        process returns the bytes moved, 0 when the extent was freed
        before or during the move."""
        return self.engine.process(
            self._migrate_body(extent_index, dst_server_id),
            name=f"migrate.ext{extent_index}",
        )

    def _migrate_body(self, extent_index: int, dst_server_id: int):
        if (
            extent_index not in self.translator.global_map
            or extent_index in self._pinned_extents
        ):
            return 0  # freed before we started, or another mover owns it
        entry = self.translator.global_map.lookup_extent(extent_index)
        src_id = entry.server_id
        local = src_id == dst_server_id
        src = self.deployment.server(src_id)
        dst = self.deployment.server(dst_server_id)
        if not dst.alive:
            raise MemoryFailureError(
                f"migration target {dst.name} is down", server_id=dst_server_id
            )
        pages_per_extent = self.geometry.pages_per_extent
        page_bytes = self.geometry.page_bytes
        first_page = extent_index * pages_per_extent
        src_table = self.translator.page_table(src_id)
        dst_region = self.regions[dst_server_id]
        dst_region.ensure_shared_free(self.geometry.extent_bytes)
        dst_frames = dst_region.allocate_frames(pages_per_extent, highest=local)
        self._pinned_extents.add(extent_index)
        try:
            # Phase 1: bulk copy every page, clearing dirty bits as we go so
            # writes racing the copy are detected.
            for page_index, dst_frame in zip(
                range(first_page, first_page + pages_per_extent), dst_frames
            ):
                src_entry = src_table.entry(page_index)
                src_entry.dirty = False
                yield self.transport.copy(
                    src.name, src_entry.frame_offset, dst.name, dst_frame, page_bytes
                )
                if extent_index in self._doomed_extents:
                    # the buffer was freed mid-copy: nothing left to move
                    dst_region.free_frames(dst_frames)
                    return 0

            # Phase 2: bounded re-copy of pages dirtied during phase 1.
            for _round in range(3):
                dirty = [
                    p
                    for p in range(first_page, first_page + pages_per_extent)
                    if src_table.entry(p).dirty
                ]
                if not dirty:
                    break
                for page_index in dirty:
                    src_entry = src_table.entry(page_index)
                    src_entry.dirty = False
                    yield self.transport.copy(
                        src.name,
                        src_entry.frame_offset,
                        dst.name,
                        dst_frames[page_index - first_page],
                        page_bytes,
                    )
                    if extent_index in self._doomed_extents:
                        dst_region.free_frames(dst_frames)
                        return 0

            # Either endpoint may have died while we were copying.  A dead
            # source means the extent's bytes are gone — committing a
            # zero-filled destination copy would be silent corruption (a
            # local move's source and destination die together).  A dead
            # destination aborts cleanly: the source stays authoritative.
            if not src.alive:
                dst_region.free_frames(dst_frames)
                raise MemoryFailureError(
                    f"extent {extent_index} lost: source {src.name} crashed "
                    "mid-migration before the copy committed",
                    server_id=src_id,
                )
            if not dst.alive:
                dst_region.free_frames(dst_frames)
                raise MigrationError(
                    f"migration of extent {extent_index} aborted: target "
                    f"{dst.name} crashed mid-copy (source copy remains authoritative)"
                )

            # Commit: remap atomically (single simulation instant).
            protection = src_table.protection(extent_index)
            src_frames = src_table.unmap_extent(extent_index)
            self.translator.page_table(dst_server_id).map_extent(
                extent_index, dst_frames, protection
            )
            self.regions[src_id].free_frames(src_frames)
            if not local:
                self.translator.global_map.reassign(extent_index, dst_server_id)
            return pages_per_extent * page_bytes
        finally:
            self._unpin_extent(extent_index)


class PhysicalMemoryPool(MemoryPool):
    """The baseline: pooled bytes live in a separate pool box.

    ``deployment.kind`` selects the §4.1 variant: ``PHYSICAL_CACHE``
    gives every server a page cache of pooled data in its local DRAM;
    ``PHYSICAL_NOCACHE`` reads the pool over the fabric every time.
    """

    def __init__(
        self,
        deployment: Deployment,
        geometry: PageGeometry | None = None,
        cache_fraction: float = 1.0,
    ) -> None:
        if not deployment.kind.is_physical or deployment.pool is None:
            raise ConfigError(
                f"PhysicalMemoryPool needs a physical deployment, got {deployment.kind.value}"
            )
        if not 0.0 < cache_fraction <= 1.0:
            raise ConfigError(f"cache_fraction must be in (0, 1], got {cache_fraction}")
        super().__init__(deployment, geometry)
        self.pool_device = deployment.pool
        self._allocator = FreeListAllocator(
            self.pool_device.dram.capacity_bytes, align=self.geometry.page_bytes
        )
        self._buffer_backing: dict[int, _t.Any] = {}
        self.caches: dict[int, PageCache] = {}
        if deployment.kind is DeploymentKind.PHYSICAL_CACHE:
            for server in deployment.servers:
                cache_bytes = int(server.dram.capacity_bytes * cache_fraction)
                self.caches[server.server_id] = PageCache(
                    cache_bytes,
                    page_bytes=deployment.spec.cache_page_bytes,
                    name=f"{server.name}.cache",
                )

    # -- capacity -----------------------------------------------------------------

    @property
    def pooled_bytes(self) -> int:
        return self.pool_device.dram.capacity_bytes

    @property
    def pooled_free_bytes(self) -> int:
        return self._allocator.bytes_free

    # -- allocate / free --------------------------------------------------------

    def allocate(
        self,
        size: int,
        requester_id: int | None = None,
        name: str = "",
        placement: PlacementPolicy | None = None,
    ) -> Buffer:
        if placement is not None:
            raise ConfigError(
                "physical pools have no placement choice: every byte lives "
                "in the pool box (the §4.5 inflexibility)"
            )
        if size <= 0:
            raise CapacityError(f"allocation size must be positive, got {size}")
        if size > self.pooled_free_bytes:
            raise InfeasibleWorkloadError(
                f"buffer of {size} bytes does not fit the physical pool "
                f"({self.pooled_free_bytes} free of {self.pooled_bytes}); "
                "the pool's capacity is fixed at deployment time — the "
                "paper's Figure 5 scenario"
            )
        try:
            allocation = self._allocator.allocate(size)
        except CapacityError as exc:
            raise InfeasibleWorkloadError(str(exc)) from exc
        extent_bytes = self.geometry.extent_bytes
        extent_count = -(-size // extent_bytes)
        extents = self._take_contiguous_extents(extent_count)
        base = GlobalAddress(extents[0] * extent_bytes)
        buffer = Buffer(base=base, size=size, geometry=self.geometry, name=name)
        self._buffers[base.value] = buffer
        self._buffer_backing[base.value] = allocation
        return buffer

    def free(self, buffer: Buffer) -> None:
        allocation = self._buffer_backing.pop(buffer.base.value, None)
        if allocation is None:
            raise AddressError(f"buffer {buffer!r} is not live in this pool")
        self._allocator.free(allocation)
        del self._buffers[buffer.base.value]
        buffer.freed = True
        # pooled pages cached on servers are now meaningless
        for cache in self.caches.values():
            cache.invalidate_range(
                allocation.offset // cache.page_bytes,
                -(-allocation.end // cache.page_bytes) - 1,
            )

    def _pool_offset(self, buffer: Buffer, offset: int) -> int:
        allocation = self._buffer_backing[buffer.base.value]
        return allocation.offset + offset

    # -- performance data path ------------------------------------------------------

    def access_segments(
        self,
        requester_id: int,
        buffer: Buffer,
        offset: int = 0,
        size: int | None = None,
        write: bool = False,
    ) -> list[AccessSegment]:
        size = buffer.size - offset if size is None else size
        buffer.slice_addresses(offset, size)  # validates
        if not self.pool_device.alive:
            raise MemoryFailureError("the physical pool is down")
        requester = self.deployment.server(requester_id)
        if write:
            route = self.switch.write_route(requester.name, self.pool_device.name)
        else:
            route = self.switch.read_route(requester.name, self.pool_device.name)

        cache = self.caches.get(requester_id)
        if cache is None:
            segment = AccessSegment(
                path=route.path,
                nbytes=size,
                curve=route.curve,
                label="pool",
            )
            if self.profiler is not None:
                self.profiler.record(
                    requester_id, self.geometry.extent_index(buffer.base), size, remote=True
                )
            return [segment]

        # Physical cache: misses are filled from the pool into local DRAM
        # (the upfront memcpy), then served locally; dirty evictions write
        # back to the pool.
        pool_offset = self._pool_offset(buffer, offset)
        outcome = cache.access_range(pool_offset, size, write=write)
        local_route = self.switch.read_route(requester.name, requester.name)
        fill_route = self.switch.copy_route(self.pool_device.name, requester.name)
        segments: list[AccessSegment] = []
        if outcome.writeback_pages:
            writeback_route = self.switch.copy_route(requester.name, self.pool_device.name)
            segments.append(
                AccessSegment(
                    path=writeback_route.path,
                    nbytes=outcome.writeback_pages * cache.page_bytes,
                    curve=writeback_route.curve,
                    label="writeback",
                )
            )
        segments.append(
            AccessSegment(
                path=local_route.path,
                nbytes=size,
                curve=local_route.curve,
                label="cached",
                fill_path=fill_route.path if outcome.miss_pages else None,
                fill_bytes=outcome.miss_pages * cache.page_bytes,
                fill_curve=fill_route.curve,
            )
        )
        if self.profiler is not None:
            self.profiler.record(
                requester_id,
                self.geometry.extent_index(buffer.base),
                size,
                remote=outcome.miss_pages > 0,
            )
        return segments

    def locality_fraction(self, requester_id: int, buffer: Buffer) -> float:
        """Pooled bytes are never local to a server in a physical pool."""
        return 0.0

    # -- functional data path ----------------------------------------------------

    def read(self, requester_id: int, buffer: Buffer, offset: int, size: int) -> "Process":
        buffer.slice_addresses(offset, size)
        return self.engine.process(
            self._read_body(requester_id, buffer, offset, size), name="pmp.read"
        )

    def _read_body(self, requester_id: int, buffer: Buffer, offset: int, size: int):
        if not self.pool_device.alive:
            raise MemoryFailureError("the physical pool is down")
        requester = self.deployment.server(requester_id)
        pool_offset = self._pool_offset(buffer, offset)
        cache = self.caches.get(requester_id)
        if cache is not None:
            outcome = cache.access_range(pool_offset, size)
            if outcome.miss_pages:
                # fill the missing pages from the pool (the upfront memcpy)
                fill_route = self.switch.copy_route(self.pool_device.name, requester.name)
                yield self.engine.timeout(fill_route.loaded_latency())
                yield self.fluid.transfer(
                    fill_route.path,
                    outcome.miss_pages * cache.page_bytes,
                    tag="cache.fill",
                )
            # serve the bytes from local DRAM at local latency
            local_route = self.switch.read_route(requester.name, requester.name)
            yield self.engine.timeout(local_route.loaded_latency())
            yield self.fluid.transfer(local_route.path, size, tag="cache.read")
            return self.pool_device.dram.read_bytes(pool_offset, size)
        data = yield self.transport.read(
            requester.name, self.pool_device.name, pool_offset, size
        )
        return data

    def write(self, requester_id: int, buffer: Buffer, offset: int, data: bytes) -> "Process":
        """Functional write; the payload is fixed at the call."""
        payload = fixed_payload(data)
        buffer.slice_addresses(offset, len(payload))
        return self.engine.process(
            self._write_body(requester_id, buffer, offset, payload), name="pmp.write"
        )

    def _write_body(self, requester_id: int, buffer: Buffer, offset: int, data: memoryview):
        if not self.pool_device.alive:
            raise MemoryFailureError("the physical pool is down")
        requester = self.deployment.server(requester_id)
        written = yield self.transport.write(
            requester.name, self.pool_device.name, self._pool_offset(buffer, offset), data
        )
        return written
