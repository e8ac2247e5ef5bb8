"""Per-server page tables: the fine-grained second translation step.

The paper's two-step scheme (§5 "Address translation"): the first step
maps a logical address to a server with a coarse, globally accessible
map; "the second step is more fine grained and can be resolved locally
within the target server."  That second step is this table: logical
page -> frame offset in the owner's DRAM, with protection bits and the
*access/dirty bits* the locality balancer samples ("one could use access
bits to identify hot remote data", §5).

The table is two-level (directory of leaf tables) so sparse address
spaces don't pay for dense arrays — the structure, not just the math,
mirrors a real radix page table.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import AddressError, ProtectionError
from repro.mem.layout import PageGeometry


class Protection(enum.Flag):
    """Page protection bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


@dataclasses.dataclass
class PageTableEntry:
    """One mapping: logical page -> local frame."""

    frame_offset: int
    protection: Protection = Protection.RW
    accessed: bool = False
    dirty: bool = False
    remote_accesses: int = 0  # sampled counter feeding the balancer


_DIRECTORY_BITS = 9  # 512-entry leaves, like an x86 radix level


class PageTable:
    """Two-level radix table for one server."""

    def __init__(self, server_id: int, geometry: PageGeometry) -> None:
        self.server_id = server_id
        self.geometry = geometry
        self._directory: dict[int, dict[int, PageTableEntry]] = {}
        self.mapped_pages = 0

    def _slot(self, page_index: int) -> tuple[int, int]:
        return page_index >> _DIRECTORY_BITS, page_index & ((1 << _DIRECTORY_BITS) - 1)

    # -- mapping ----------------------------------------------------------------

    def map_page(
        self,
        page_index: int,
        frame_offset: int,
        protection: Protection = Protection.RW,
    ) -> None:
        """Install logical page *page_index* at *frame_offset*."""
        if frame_offset < 0:
            raise AddressError(f"negative frame offset {frame_offset}")
        if frame_offset % self.geometry.page_bytes != 0:
            raise AddressError(
                f"frame offset {frame_offset} not aligned to "
                f"{self.geometry.page_bytes}-byte pages"
            )
        hi, lo = self._slot(page_index)
        leaf = self._directory.setdefault(hi, {})
        if lo in leaf:
            raise AddressError(f"page {page_index} already mapped on server {self.server_id}")
        leaf[lo] = PageTableEntry(frame_offset, protection)
        self.mapped_pages += 1

    def unmap_page(self, page_index: int) -> PageTableEntry:
        """Remove a mapping, returning its entry (for migration)."""
        hi, lo = self._slot(page_index)
        leaf = self._directory.get(hi)
        if leaf is None or lo not in leaf:
            raise AddressError(f"page {page_index} not mapped on server {self.server_id}")
        entry = leaf.pop(lo)
        if not leaf:
            del self._directory[hi]
        self.mapped_pages -= 1
        return entry

    def entry(self, page_index: int) -> PageTableEntry:
        hi, lo = self._slot(page_index)
        leaf = self._directory.get(hi)
        if leaf is None or lo not in leaf:
            raise AddressError(f"page {page_index} not mapped on server {self.server_id}")
        return leaf[lo]

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
        needed = Protection.WRITE if write else Protection.READ
        if not entry.protection & needed:
            raise ProtectionError(
                f"page {page_index} on server {self.server_id} lacks {needed}"
            )
        entry.accessed = True
        if write:
            entry.dirty = True
        if remote:
            entry.remote_accesses += 1
        return entry.frame_offset + offset_in_page
