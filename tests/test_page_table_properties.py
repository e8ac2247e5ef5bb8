"""The extent-keyed page table against a per-page reference.

The table books whole extents and makes per-page entries only on first
touch.  This state machine drives it through map / unmap / translate /
migrate (to another server or to the owner) and checks every step
against the plain model it replaced: a dict per server from page to
(frame, protection, access bits).  Frames handed back by
``unmap_extent``, every page's frame and bits, and ``mapped_pages`` must
all agree.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.pool import LogicalMemoryPool
from repro.errors import AddressError, ProtectionError
from repro.mem import page_table
from repro.mem.layout import PageGeometry
from repro.mem.page_table import PageTable, Protection
from repro.topology.builder import build_logical
from repro.units import kib

GEO = PageGeometry(page_bytes=kib(16), extent_bytes=kib(64))
PPE = GEO.pages_per_extent
SERVERS = (0, 1, 2)
PROTECTIONS = (Protection.RW, Protection.READ, Protection.WRITE, Protection.NONE)

servers = st.sampled_from(SERVERS)
picks = st.integers(0, 1_000)


@dataclasses.dataclass
class RefPage:
    frame: int
    protection: Protection
    accessed: bool = False
    dirty: bool = False
    remote_accesses: int = 0


class PageTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tables = {sid: PageTable(sid, GEO) for sid in SERVERS}
        #: server -> page -> what a per-page table would hold
        self.ref: dict[int, dict[int, RefPage]] = {sid: {} for sid in SERVERS}
        #: extent -> owning server (extents are unique rack-wide)
        self.owner: dict[int, int] = {}
        self._next_frame = 0

    def _fresh_frames(self, count: int) -> list[int]:
        first = self._next_frame
        self._next_frame += count
        # a descending run, so page order and frame order differ
        return [(first + count - 1 - i) * GEO.page_bytes for i in range(count)]

    def _pick(self, pick: int) -> int:
        extents = sorted(self.owner)
        return extents[pick % len(extents)]

    def _map(self, server: int, extent: int, protection: Protection) -> None:
        frames = self._fresh_frames(PPE)
        self.tables[server].map_extent(extent, frames, protection)
        for slot, frame in enumerate(frames):
            self.ref[server][extent * PPE + slot] = RefPage(frame, protection)
        self.owner[extent] = server

    def _unmap(self, extent: int) -> None:
        server = self.owner.pop(extent)
        frames = self.tables[server].unmap_extent(extent)
        expected = [self.ref[server].pop(extent * PPE + slot).frame for slot in range(PPE)]
        assert frames == expected

    # -- rules -------------------------------------------------------------------

    @rule(server=servers, extent=st.integers(0, 40), protection=st.sampled_from(PROTECTIONS))
    def map_extent(self, server: int, extent: int, protection: Protection) -> None:
        if extent in self.owner:
            if self.owner[extent] == server:
                with pytest.raises(AddressError):
                    self.tables[server].map_extent(extent, self._fresh_frames(PPE))
            return
        self._map(server, extent, protection)

    @precondition(lambda self: self.owner)
    @rule(pick=picks)
    def unmap_extent(self, pick: int) -> None:
        self._unmap(self._pick(pick))

    @rule(server=servers, extent=st.integers(0, 40))
    def unmap_unmapped(self, server: int, extent: int) -> None:
        if self.owner.get(extent) != server:
            with pytest.raises(AddressError):
                self.tables[server].unmap_extent(extent)

    @precondition(lambda self: self.owner)
    @rule(
        pick=picks,
        slot=st.integers(0, PPE - 1),
        offset=st.integers(0, GEO.page_bytes - 1),
        write=st.booleans(),
        remote=st.booleans(),
    )
    def translate(self, pick: int, slot: int, offset: int, write: bool, remote: bool) -> None:
        extent = self._pick(pick)
        server = self.owner[extent]
        page = extent * PPE + slot
        ref = self.ref[server][page]
        needed = Protection.WRITE if write else Protection.READ
        if not ref.protection & needed:
            with pytest.raises(ProtectionError):
                self.tables[server].translate(page, offset, write=write, remote=remote)
            return
        got = self.tables[server].translate(page, offset, write=write, remote=remote)
        assert got == ref.frame + offset
        ref.accessed = True
        ref.dirty = ref.dirty or write
        ref.remote_accesses += remote

    @rule(server=servers, page=st.integers(0, 41 * PPE))
    def translate_unmapped(self, server: int, page: int) -> None:
        if self.owner.get(page // PPE) != server:
            with pytest.raises(AddressError):
                self.tables[server].translate(page, 0)

    @precondition(lambda self: self.owner)
    @rule(pick=picks, dst=servers)
    def migrate(self, pick: int, dst: int) -> None:
        """The pool's commit: unmap on the source, map fresh frames on
        the destination with the extent's protection; bits start clean.
        A local move (*dst* is the owner) commits the same way on one
        table."""
        extent = self._pick(pick)
        src = self.owner[extent]
        protection = self.tables[src].protection(extent)
        assert protection == self.ref[src][extent * PPE].protection
        self._unmap(extent)
        self._map(dst, extent, protection)

    @precondition(lambda self: self.owner)
    @rule(pick=picks, slot=st.integers(0, PPE - 1))
    def mover_clears_dirty(self, pick: int, slot: int) -> None:
        """A migration's copy phase clears a page's dirty bit."""
        extent = self._pick(pick)
        server = self.owner[extent]
        page = extent * PPE + slot
        self.tables[server].entry(page).dirty = False
        self.ref[server][page].dirty = False

    # -- the invariant -------------------------------------------------------------

    @invariant()
    def tables_match_the_per_page_reference(self) -> None:
        for sid, table in self.tables.items():
            ref = self.ref[sid]
            assert table.mapped_pages == len(ref)
            assert sorted(table.extents()) == sorted(
                e for e, owner in self.owner.items() if owner == sid
            )
            for extent in table.extents():
                assert table.frames(extent) == [
                    ref[extent * PPE + slot].frame for slot in range(PPE)
                ]
            # untouched pages stay entry-free: check only touched ones
            for page, want in ref.items():
                if not want.accessed:
                    continue
                entry = table.entry(page)
                assert entry.frame_offset == want.frame
                assert (entry.accessed, entry.dirty, entry.remote_accesses) == (
                    want.accessed,
                    want.dirty,
                    want.remote_accesses,
                )


TestPageTableMachine = PageTableMachine.TestCase
TestPageTableMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


# --- entries are made on first touch ------------------------------------------


def test_allocate_makes_no_entry_and_one_read_makes_one(monkeypatch):
    made: list[int] = []

    class CountedEntry(page_table.PageTableEntry):
        __slots__ = ()

        def __init__(self, mapping: page_table.ExtentMapping, slot: int) -> None:
            made.append(slot)
            super().__init__(mapping, slot)

    monkeypatch.setattr(page_table, "PageTableEntry", CountedEntry)
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment)
    buffer = pool.allocate(4 * pool.geometry.extent_bytes, requester_id=0)
    assert made == []
    assert sum(t.mapped_pages for t in pool.translator.page_tables.values()) == (
        4 * pool.geometry.pages_per_extent
    )
    offset = pool.geometry.extent_bytes + 3 * pool.geometry.page_bytes + 5
    deployment.run(pool.read(1, buffer, offset, 100))  # one page, remotely
    assert len(made) == 1
    owner = pool.translator.owner_of(int(buffer.base) + offset)
    page = pool.geometry.page_index(int(buffer.base) + offset)
    entry = pool.translator.page_table(owner).entry(page)
    assert entry.accessed and entry.remote_accesses == 1
    assert len(made) == 1  # the entry the read made, not a new one
