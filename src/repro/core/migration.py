"""Locality balancing: the policy half of migration (§5).

"Similar to NUMA balancing in multi-socket machines, LMPs need to
periodically migrate data between servers to maximize the number of
local accesses. ... we need ... new policies to decide what data to
migrate."

The balancer runs once per epoch:

1. ask the :class:`~repro.core.profiling.AccessProfiler` which extents
   see remote traffic and who their dominant consumer is,
2. rank candidates by *migration gain*: remote bytes that would become
   local, minus the one-time copy cost (an extent must be re-read
   ``cost_threshold`` times by its dominant consumer before moving pays
   off),
3. respect per-epoch budgets (bytes moved) and destination free space,
4. execute migrations through the pool's two-phase
   :meth:`~repro.core.pool.LogicalMemoryPool.migrate_extent` mechanism.

Because addresses are logical, applications keep running across all of
this; only the global map generation changes.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.pool import LogicalMemoryPool
from repro.core.profiling import AccessProfiler, dominant
from repro.errors import CapacityError, ConfigError, MigrationError
from repro.mem.allocator import FreeListAllocator
from repro.units import gib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process


def _no_heat(_extent_index: int) -> float:
    """Every extent is equally cold when no profiler is attached."""
    return 0.0


@dataclasses.dataclass(frozen=True)
class MigrationDecision:
    """One planned move."""

    extent_index: int
    src_server_id: int
    dst_server_id: int
    expected_gain_bytes: float


@dataclasses.dataclass
class BalancerReport:
    """What one epoch did."""

    epoch: int
    candidates: int
    migrations: list[MigrationDecision]
    bytes_moved: int
    skipped_no_space: int
    skipped_low_gain: int


class LocalityBalancer:
    """Periodic migration policy over a logical pool."""

    def __init__(
        self,
        pool: LogicalMemoryPool,
        profiler: AccessProfiler,
        gain_threshold: float = 2.0,
        epoch_budget_bytes: int = gib(4),
        min_dominance: float = 0.5,
    ) -> None:
        if gain_threshold <= 0:
            raise ConfigError(f"gain_threshold must be positive, got {gain_threshold}")
        if epoch_budget_bytes <= 0:
            raise ConfigError("epoch_budget_bytes must be positive")
        if not 0.0 <= min_dominance <= 1.0:
            raise ConfigError(f"min_dominance must be in [0, 1], got {min_dominance}")
        self.pool = pool
        self.profiler = profiler
        self.gain_threshold = gain_threshold
        self.epoch_budget_bytes = epoch_budget_bytes
        self.min_dominance = min_dominance
        self.reports: list[BalancerReport] = []
        pool.attach_profiler(profiler)

    # -- planning (pure; unit-testable without a simulator) -------------------------

    def plan(self) -> list[MigrationDecision]:
        """Rank and budget this epoch's migrations."""
        extent_bytes = self.pool.geometry.extent_bytes
        global_map = self.pool.translator.global_map
        free = self.pool.potential_free_by_server()
        decisions: list[MigrationDecision] = []
        skipped_space = skipped_gain = 0

        scored: list[tuple[float, int, int]] = []  # (gain, extent, dst)
        for extent_index, consumers in self.profiler.remote_bytes_by_extent().items():
            consumer, share = dominant(consumers)
            if consumer is None or share < self.min_dominance:
                continue
            gain = consumers[consumer]
            # moving pays off only if the hot consumer re-reads the extent
            # enough to amortize the copy
            if gain < self.gain_threshold * extent_bytes:
                skipped_gain += 1
                continue
            scored.append((gain, extent_index, consumer))
        scored.sort(key=lambda t: (-t[0], t[1]))

        budget = self.epoch_budget_bytes
        for gain, extent_index, dst in scored:
            if budget < extent_bytes:
                break
            src = global_map.lookup_extent(extent_index).server_id
            if src == dst:
                continue
            if free.get(dst, 0) < extent_bytes:
                skipped_space += 1
                continue
            free[dst] -= extent_bytes
            free[src] = free.get(src, 0) + extent_bytes
            budget -= extent_bytes
            decisions.append(
                MigrationDecision(
                    extent_index=extent_index,
                    src_server_id=src,
                    dst_server_id=dst,
                    expected_gain_bytes=gain,
                )
            )

        self._last_skips = (skipped_space, skipped_gain)
        return decisions

    # -- execution ----------------------------------------------------------------

    def run_epoch(self) -> "Process":
        """Plan, execute the moves, and age the profiler; the process
        returns the epoch's :class:`BalancerReport`."""
        return self.pool.engine.process(self._epoch_body(), name="balancer.epoch")

    def _epoch_body(self):
        decisions = self.plan()
        skipped_space, skipped_gain = self._last_skips
        moved = 0
        for decision in decisions:
            yield self.pool.migrate_extent(
                decision.extent_index, decision.dst_server_id
            )
            moved += self.pool.geometry.extent_bytes
        candidates = len(self.profiler.remote_bytes_by_extent())
        self.profiler.advance_epoch()
        report = BalancerReport(
            epoch=self.profiler.epoch,
            candidates=candidates,
            migrations=decisions,
            bytes_moved=moved,
            skipped_no_space=skipped_space,
            skipped_low_gain=skipped_gain,
        )
        self.reports.append(report)
        obs = self.pool.engine.obs
        if obs is not None:
            obs.epoch_done(report)
        return report

    @property
    def total_bytes_moved(self) -> int:
        return sum(r.bytes_moved for r in self.reports)


@dataclasses.dataclass(frozen=True)
class CompactionReport:
    """Outcome of one arena compaction pass.

    ``moves`` maps each relocated block's old offset to its new one;
    callers holding raw offsets across the pass must re-resolve through
    it (a stale offset raises
    :class:`~repro.errors.StaleHandleError` on its next use).
    """

    blocks_moved: int
    bytes_moved: int
    moves: dict[int, int]
    fragmentation_before: float
    fragmentation_after: float
    largest_hole_before: int
    largest_hole_after: int
    #: honest copy cost: bytes_moved at local-copy bandwidth, charged to
    #: the simulation clock by the caller (the gauntlet's DES replay
    #: yields a timeout for exactly this long)
    cost_ns: int


class ArenaCompactor:
    """Slide live blocks left to close holes in a shared-pool arena.

    The policy half is a single threshold: compact when external
    fragmentation exceeds it.  The mechanism reuses the allocator's own
    ``relocate()`` (free + lowest-fit re-allocate), so the sanitizers
    observe every move, and the cost model is the same
    bytes-over-bandwidth accounting the extent-migration paths use —
    compaction is never free.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        copy_bytes_per_ns: float = 8.0,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
        if copy_bytes_per_ns <= 0:
            raise ConfigError(
                f"copy_bytes_per_ns must be positive, got {copy_bytes_per_ns}"
            )
        self.threshold = threshold
        self.copy_bytes_per_ns = copy_bytes_per_ns
        self.reports: list[CompactionReport] = []

    def should_compact(self, allocator: FreeListAllocator) -> bool:
        """True when *allocator* is past the fragmentation threshold."""
        return allocator.fragmentation() > self.threshold

    def compact(self, allocator: FreeListAllocator) -> CompactionReport:
        """Relocate every live block, lowest first, into the lowest hole.

        Ascending order makes each slide monotone leftward, so one pass
        reaches the fully-compacted layout (all live blocks packed low,
        free space one hole) and terminates.
        """
        frag_before = allocator.fragmentation()
        hole_before = allocator.largest_hole
        moves: dict[int, int] = {}
        bytes_moved = 0
        for block in allocator.live_allocations():
            granted = allocator.relocate(block)
            if granted.offset != block.offset:
                moves[block.offset] = granted.offset
                bytes_moved += block.size
        report = CompactionReport(
            blocks_moved=len(moves),
            bytes_moved=bytes_moved,
            moves=moves,
            fragmentation_before=frag_before,
            fragmentation_after=allocator.fragmentation(),
            largest_hole_before=hole_before,
            largest_hole_after=allocator.largest_hole,
            cost_ns=int(bytes_moved / self.copy_bytes_per_ns),
        )
        self.reports.append(report)
        return report

    @property
    def total_bytes_moved(self) -> int:
        return sum(r.bytes_moved for r in self.reports)


@dataclasses.dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one capacity-rebalancing pass."""

    moves: int
    bytes_moved: int
    imbalance_before: float
    imbalance_after: float


class CapacityBalancer:
    """Even out per-server shared usage.

    LocalFirst placement deliberately concentrates data near its
    allocator; over time that can exhaust one server's shared region
    while others idle — which blocks future local-first allocations and
    concentrates fabric traffic.  This balancer moves the *coldest*
    extents from the most-loaded servers to the least-loaded until the
    max/mean usage ratio drops under ``tolerance``.

    It deliberately moves cold data: hot data's placement is the
    locality balancer's job, and moving it would fight that policy.
    """

    def __init__(
        self,
        pool: LogicalMemoryPool,
        profiler: AccessProfiler | None = None,
        tolerance: float = 1.25,
        max_moves: int = 64,
    ) -> None:
        if tolerance < 1.0:
            raise ConfigError(f"tolerance must be >= 1.0, got {tolerance}")
        if max_moves < 1:
            raise ConfigError(f"max_moves must be >= 1, got {max_moves}")
        self.pool = pool
        self.profiler = profiler
        self.tolerance = tolerance
        self.max_moves = max_moves
        self.reports: list[RebalanceReport] = []

    def _usage(self) -> dict[int, int]:
        return {
            sid: region.shared_used_bytes
            for sid, region in self.pool.regions.items()
            if self.pool.deployment.server(sid).alive
        }

    @staticmethod
    def _imbalance(usage: dict[int, int]) -> float:
        if not usage or sum(usage.values()) == 0:
            return 1.0
        mean = sum(usage.values()) / len(usage)
        return max(usage.values()) / mean if mean else 1.0

    def plan(self) -> list[tuple[int, int, int]]:
        """(extent, src, dst) moves that bring usage within tolerance."""
        usage = self._usage()
        if self._imbalance(usage) <= self.tolerance:
            return []
        extent_bytes = self.pool.geometry.extent_bytes
        translator = self.pool.translator
        potential = self.pool.potential_free_by_server()
        heat = _no_heat if self.profiler is None else self.profiler.extent_heat
        moves: list[tuple[int, int, int]] = []
        moved: set[int] = set()
        # coldest extents of the hottest server, repeatedly
        for _step in range(self.max_moves):
            if self._imbalance(usage) <= self.tolerance:
                break
            src = max(usage, key=lambda sid: (usage[sid], sid))
            dst = min(usage, key=lambda sid: (usage[sid], -sid))
            if src == dst or potential.get(dst, 0) < extent_bytes:
                break
            candidates = [e for e in translator.page_table(src).extents() if e not in moved]
            if not candidates:
                break
            victim = min(candidates, key=lambda e: (heat(e), e))
            moves.append((victim, src, dst))
            moved.add(victim)
            usage[src] -= extent_bytes
            usage[dst] += extent_bytes
            potential[dst] -= extent_bytes
        return moves

    def rebalance(self) -> "Process":
        """Execute the plan; the process returns a :class:`RebalanceReport`."""
        return self.pool.engine.process(self._rebalance_body(), name="capacity.rebalance")

    def _rebalance_body(self):
        before = self._imbalance(self._usage())
        moves = self.plan()
        moved_bytes = 0
        for extent_index, _src, dst in moves:
            yield self.pool.migrate_extent(extent_index, dst)
            moved_bytes += self.pool.geometry.extent_bytes
        report = RebalanceReport(
            moves=len(moves),
            bytes_moved=moved_bytes,
            imbalance_before=before,
            imbalance_after=self._imbalance(self._usage()),
        )
        self.reports.append(report)
        return report


@dataclasses.dataclass(frozen=True)
class ReclaimReport:
    """Outcome of one private-memory reclaim."""

    server_id: int
    requested_bytes: int
    reclaimed_bytes: int
    extents_evacuated: int
    bytes_evacuated: int
    #: bytes moved *within* the server compacting kept extents out of
    #: the reclaimed range — copies the transport ledger also sees
    bytes_relocated: int = 0

    @property
    def satisfied(self) -> bool:
        return self.reclaimed_bytes >= self.requested_bytes


class PressureEvictor:
    """Give a server its private memory back (§5).

    "Oversizing the shared regions can negatively affect performance of
    local workloads if the local memory is monopolized by remote
    servers."  When local (private) demand grows, this evictor shrinks
    the server's shared region by *nbytes*: free frames shrink for
    free; occupied frames force their extents to be evacuated —
    coldest first, per the profiler — to the servers with the most
    room.  Data stays addressable throughout (migration preserves
    logical addresses).
    """

    def __init__(self, pool: LogicalMemoryPool, profiler: AccessProfiler | None = None) -> None:
        self.pool = pool
        self.profiler = profiler
        self.reports: list[ReclaimReport] = []

    def _owned_extents(self, server_id: int) -> list[int]:
        return list(self.pool.translator.page_table(server_id).extents())

    def plan(self, server_id: int, nbytes: int) -> tuple[list[int], list[int]]:
        """(keep_locally, evict_remotely) extent lists for a reclaim.

        After the shrink the server holds ``(shared - nbytes)`` of
        shared memory; the hottest extents that still fit stay local
        (relocated out of the reclaimed range if needed), the coldest
        remainder is evacuated to other servers.
        """
        region = self.pool.regions[server_id]
        extent_bytes = self.pool.geometry.extent_bytes
        page = region.page_bytes
        target = min(-(-nbytes // page) * page, region.shared_bytes)
        slots_after = (region.shared_bytes - target) // extent_bytes
        heat = _no_heat if self.profiler is None else self.profiler.extent_heat
        heats = {e: heat(e) for e in self._owned_extents(server_id)}
        ranked = sorted(heats, key=lambda e: (-heats[e], e))  # hottest first
        keep = ranked[: max(0, slots_after)]
        evict = ranked[max(0, slots_after):]
        evict.sort(key=lambda e: (heats[e], e))  # coldest leave first
        return keep, evict

    def reclaim(self, server_id: int, nbytes: int) -> "Process":
        """Shrink *server_id*'s shared region by up to *nbytes*; the
        process returns a :class:`ReclaimReport`."""
        return self.pool.engine.process(
            self._reclaim_body(server_id, nbytes), name=f"reclaim.s{server_id}"
        )

    def _reclaim_body(self, server_id: int, nbytes: int):
        region = self.pool.regions[server_id]
        page = region.page_bytes
        target = min(-(-nbytes // page) * page, region.shared_bytes)
        extent_bytes = self.pool.geometry.extent_bytes
        keep, evict = self.plan(server_id, nbytes)

        # evacuate the cold overflow to wherever has the most room
        evacuated = 0
        moved_extents = 0
        for extent_index in evict:
            free_elsewhere = {
                sid: free
                for sid, free in self.pool.potential_free_by_server().items()
                if sid != server_id
            }
            dst = max(
                free_elsewhere, key=lambda sid: (free_elsewhere[sid], -sid), default=None
            )
            if dst is None or free_elsewhere[dst] < extent_bytes:
                break  # the cluster is full; reclaim what free frames allow
            try:
                moved = yield self.pool.migrate_extent(extent_index, dst)
            except (MigrationError, CapacityError):
                continue  # dst crashed or lost its room mid-flight; repick
            if moved:  # 0 when the extent was freed mid-migration
                moved_extents += 1
                evacuated += moved

        # compact kept extents out of the reclaimed range (local copies)
        relocated = 0
        blockers = set(region.frames_blocking_shrink(target))
        if blockers:
            table = self.pool.translator.page_table(server_id)
            for extent_index in keep:
                if extent_index not in table.extents():
                    continue  # freed or moved away since the plan
                if blockers.isdisjoint(table.frames(extent_index)):
                    continue
                if region.shared_free_bytes < extent_bytes:
                    break  # nowhere to compact to; reclaim stays partial
                try:
                    relocated += yield self.pool.relocate_extent_locally(extent_index)
                except CapacityError:
                    break  # frames vanished between the check and the move

        before = region.shared_bytes
        region.set_shared_target(region.shared_bytes - target)
        reclaimed = before - region.shared_bytes
        report = ReclaimReport(
            server_id=server_id,
            requested_bytes=nbytes,
            reclaimed_bytes=reclaimed,
            extents_evacuated=moved_extents,
            bytes_evacuated=evacuated,
            bytes_relocated=relocated,
        )
        self.reports.append(report)
        return report
