"""Per-server page tables: the fine-grained second translation step.

The paper's two-step scheme (§5 "Address translation"): the first step
maps a logical address to a server with a coarse, globally accessible
map; "the second step is more fine grained and can be resolved locally
within the target server."  That second step is this table: logical
page -> frame offset in the owner's DRAM, with protection bits and the
*access/dirty bits* the locality balancer samples ("one could use access
bits to identify hot remote data", §5).

The table is two-level, and its directory is keyed by extent index, the
granule the first step already works in: an extent is mapped and
unmapped as one unit.  Each leaf is one extent's pages: the frame list
backing them (the only record of which frames hold the extent), the
extent's protection, and a :class:`PageTableEntry` for each page that a
translation or a mover has touched.  Entries are made on first touch,
so mapping a 64 GiB buffer writes one record per extent, not one entry
per page, and sparse address spaces pay only for the extents they map.
"""

from __future__ import annotations

import enum
import typing as _t

from repro.errors import AddressError, ProtectionError
from repro.mem.layout import PageGeometry


class Protection(enum.Flag):
    """Page protection bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


class ExtentMapping:
    """One leaf: an extent's frames, protection and touched pages."""

    __slots__ = ("frames", "protection", "entries")

    def __init__(self, frames: list[int], protection: Protection) -> None:
        #: frame offset of each page of the extent, in page order
        self.frames = frames
        self.protection = protection
        #: page slot within the extent -> its entry, for touched pages
        self.entries: dict[int, PageTableEntry] = {}


class PageTableEntry:
    """One touched page's access bits; its frame is the leaf's."""

    __slots__ = ("_mapping", "_slot", "accessed", "dirty", "remote_accesses")

    def __init__(self, mapping: ExtentMapping, slot: int) -> None:
        self._mapping = mapping
        self._slot = slot
        self.accessed = False
        self.dirty = False
        self.remote_accesses = 0  # sampled counter feeding the balancer

    @property
    def frame_offset(self) -> int:
        return self._mapping.frames[self._slot]


class PageTable:
    """Two-level table for one server: extent -> that extent's pages."""

    def __init__(self, server_id: int, geometry: PageGeometry) -> None:
        self.server_id = server_id
        self.geometry = geometry
        self._pages_per_extent = geometry.pages_per_extent
        self._directory: dict[int, ExtentMapping] = {}
        self.mapped_pages = 0

    def _mapping(self, extent_index: int) -> ExtentMapping:
        mapping = self._directory.get(extent_index)
        if mapping is None:
            raise AddressError(f"extent {extent_index} not mapped on server {self.server_id}")
        return mapping

    def _check_frames(self, frames: list[int]) -> None:
        page = self.geometry.page_bytes
        if frames and min(frames) < 0:
            raise AddressError(f"negative frame offset {min(frames)}")
        if any(map(page.__rmod__, frames)):  # f % page for each f, at C level
            bad = next(f for f in frames if f % page)
            raise AddressError(f"frame offset {bad} not aligned to {page}-byte pages")

    # -- mapping ----------------------------------------------------------------

    def map_extent(
        self,
        extent_index: int,
        frames: _t.Iterable[int],
        protection: Protection = Protection.RW,
    ) -> None:
        """Install every page of *extent_index*: page ``i`` of the extent
        at ``frames[i]``."""
        frames = list(frames)
        if len(frames) != self._pages_per_extent:
            raise AddressError(
                f"extent {extent_index} needs {self._pages_per_extent} frames, "
                f"got {len(frames)}"
            )
        if extent_index in self._directory:
            raise AddressError(
                f"extent {extent_index} already mapped on server {self.server_id}"
            )
        self._check_frames(frames)
        self._directory[extent_index] = ExtentMapping(frames, protection)
        self.mapped_pages += self._pages_per_extent

    def unmap_extent(self, extent_index: int) -> list[int]:
        """Remove an extent's mapping, returning the frames that backed
        its pages (in page order) for the caller to free or reuse."""
        mapping = self._mapping(extent_index)
        del self._directory[extent_index]
        self.mapped_pages -= self._pages_per_extent
        return mapping.frames

    # -- per-extent reads -------------------------------------------------------

    def extents(self) -> _t.KeysView[int]:
        """The extents mapped here, in mapping order."""
        return self._directory.keys()

    def frames(self, extent_index: int) -> list[int]:
        """The frames backing *extent_index*'s pages, in page order (the
        live record: read it, do not change it)."""
        return self._mapping(extent_index).frames

    def protection(self, extent_index: int) -> Protection:
        return self._mapping(extent_index).protection

    # -- per-page entries -------------------------------------------------------

    def entry(self, page_index: int) -> PageTableEntry:
        """The entry of a mapped page, made on its first touch."""
        extent_index, slot = divmod(page_index, self._pages_per_extent)
        mapping = self._directory.get(extent_index)
        if mapping is None:
            raise AddressError(f"page {page_index} not mapped on server {self.server_id}")
        entry = mapping.entries.get(slot)
        if entry is None:
            entry = mapping.entries[slot] = PageTableEntry(mapping, slot)
        return entry

    # -- translation ----------------------------------------------------------

    def translate(
        self,
        page_index: int,
        offset_in_page: int,
        write: bool = False,
        remote: bool = False,
    ) -> int:
        """Resolve to a DRAM offset, updating access/dirty bits.

        ``remote=True`` marks the access as fabric-originated and counts
        it in the entry's ``remote_accesses``.
        """
        entry = self.entry(page_index)
        mapping = entry._mapping
        needed = Protection.WRITE if write else Protection.READ
        if not mapping.protection & needed:
            raise ProtectionError(
                f"page {page_index} on server {self.server_id} lacks {needed}"
            )
        entry.accessed = True
        if write:
            entry.dirty = True
        if remote:
            entry.remote_accesses += 1
        return mapping.frames[entry._slot] + offset_in_page
