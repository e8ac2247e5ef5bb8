"""Property test for the logical pool's incremental free ledger.

The pool keeps ``shared_free_bytes + growable_bytes()`` per live server,
and their total, up to date from the regions' own mutators instead of
recomputing them on every placement, admission or eviction decision.  A
stateful machine drives random allocate / free / migrate (remote or local) /
reclaim / resize / flex-toggle / crash sequences against a small rack
and checks after every step that the ledger equals a full
recomputation over the live servers, key order included (placement
iterates it).
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.check.sanitizers import AllocSanitizer
from repro.core.migration import PressureEvictor
from repro.core.pool import LogicalMemoryPool
from repro.core.profiling import AccessProfiler
from repro.errors import CapacityError, MemoryFailureError, MigrationError
from repro.mem.interleave import PinnedPlacement
from repro.mem.layout import PageGeometry
from repro.topology.builder import build_logical
from repro.units import kib, mib

SERVERS = 4
PAGE = kib(16)
EXTENT = kib(64)

#: what a legal operation on a full, frozen or crashed rack may raise
_REFUSED = (CapacityError, MemoryFailureError, MigrationError)

server_ids = st.integers(0, SERVERS - 1)


class LedgerMachine(RuleBasedStateMachine):
    """Random pool mutations, ledger checked against a recomputation."""

    @initialize(shared_eighths=st.integers(2, 8))
    def setup(self, shared_eighths: int) -> None:
        self.deployment = build_logical(
            "link0", server_count=SERVERS, server_dram_bytes=mib(1)
        )
        self.pool = LogicalMemoryPool(
            self.deployment,
            geometry=PageGeometry(page_bytes=PAGE, extent_bytes=EXTENT),
            shared_fraction=shared_eighths / 8,
        )
        self.profiler = AccessProfiler()
        self.pool.attach_profiler(self.profiler)
        self.evictor = PressureEvictor(self.pool, self.profiler)
        self.buffers: list = []

    def _run(self, process) -> None:
        try:
            self.deployment.run(process)
        except _REFUSED:
            pass

    def _extents(self) -> list[int]:
        tables = self.pool.translator.page_tables.values()
        return sorted(e for table in tables for e in table.extents())

    def _alive(self, server: int) -> bool:
        return self.deployment.server(server).alive

    # -- allocate / free ----------------------------------------------------------

    @rule(requester=server_ids, extents=st.integers(1, 4), pinned=st.booleans())
    def allocate(self, requester: int, extents: int, pinned: bool) -> None:
        if not self._alive(requester):
            return
        placement = PinnedPlacement(requester) if pinned else None
        try:
            buffer = self.pool.allocate(
                extents * EXTENT, requester_id=requester, placement=placement
            )
        except CapacityError:
            return
        self.buffers.append(buffer)

    @precondition(lambda self: self.buffers)
    @rule(index=st.integers(0, 50))
    def free(self, index: int) -> None:
        self.pool.free(self.buffers.pop(index % len(self.buffers)))

    @precondition(lambda self: self.buffers)
    @rule(requester=server_ids, index=st.integers(0, 50))
    def touch(self, requester: int, index: int) -> None:
        """Feed the profiler so eviction has heat to rank by."""
        buffer = self.buffers[index % len(self.buffers)]
        try:
            self.pool.access_segments(requester, buffer)
        except MemoryFailureError:
            pass

    # -- the movers ---------------------------------------------------------------

    @precondition(lambda self: self._extents())
    @rule(index=st.integers(0, 50), dst=server_ids)
    def migrate(self, index: int, dst: int) -> None:
        """A *dst* that owns the extent is a local move."""
        extents = self._extents()
        self._run(self.pool.migrate_extent(extents[index % len(extents)], dst))

    @rule(server=server_ids, extents=st.integers(1, 16))
    def reclaim(self, server: int, extents: int) -> None:
        self._run(self.evictor.reclaim(server, extents * EXTENT))

    # -- explicit resizes and the flex seam ---------------------------------------

    @rule(server=server_ids, pages=st.integers(1, 16))
    def grow(self, server: int, pages: int) -> None:
        try:
            self.pool.regions[server].grow_shared(pages * PAGE)
        except CapacityError:
            pass

    @rule(server=server_ids, pages=st.integers(1, 16))
    def shrink(self, server: int, pages: int) -> None:
        try:
            self.pool.regions[server].shrink_shared(pages * PAGE)
        except CapacityError:
            pass

    @rule(server=server_ids, pages=st.integers(0, 64))
    def set_target(self, server: int, pages: int) -> None:
        self.pool.regions[server].set_shared_target(pages * PAGE)

    @rule(server=server_ids)
    def toggle_flex(self, server: int) -> None:
        region = self.pool.regions[server]
        region.flex_on_demand = not region.flex_on_demand

    @rule(server=server_ids)
    def crash(self, server: int) -> None:
        self.deployment.server(server).crash()  # twice is a no-op

    # -- the invariant ------------------------------------------------------------

    @invariant()
    def ledger_matches_recomputation(self) -> None:
        expected = {
            sid: region.shared_free_bytes + region.growable_bytes()
            for sid, region in self.pool.regions.items()
            if self._alive(sid)
        }
        ledger = self.pool.potential_free_by_server()
        assert ledger == expected
        assert list(ledger) == list(expected)
        assert self.pool.potential_free_bytes == sum(expected.values())

    def teardown(self) -> None:
        if not hasattr(self, "pool"):
            return  # initialize() never ran for this example
        for buffer in self.buffers:
            self.pool.free(buffer)
        sanitizer = AllocSanitizer.active()
        if sanitizer is not None:
            for region in self.pool.regions.values():
                sanitizer.assert_no_leaks(region)


LedgerMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestLedger = LedgerMachine.TestCase
