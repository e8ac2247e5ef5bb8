"""The coarse-grained global map: the first translation step.

"A better solution is to translate in two steps: first, map a logical
address to a server, then map the address within the server.  The first
step uses coarse-grained maps, which can be globally accessible" (§5).

Entries are per *extent* (256 MiB by default) and carry a **generation**
number.  Migration bumps the generation; cached copies of the map (the
per-server :class:`MapCache` below, the analogue of a TLB for step one)
detect staleness by comparing generations and re-fetch.  This is the
mechanism that lets "migrating a buffer ... not invalidate its address"
(§3.2): addresses are logical, only this map changes.
"""

from __future__ import annotations

import dataclasses

from repro.errors import AddressError, MigrationError
from repro.mem.layout import GlobalAddress, PageGeometry


@dataclasses.dataclass(frozen=True)
class MapEntry:
    """Ownership record for one extent."""

    extent_index: int
    server_id: int
    generation: int


class GlobalMap:
    """Authoritative extent -> server ownership, with generations."""

    def __init__(self, geometry: PageGeometry) -> None:
        self.geometry = geometry
        self._entries: dict[int, MapEntry] = {}
        self.generation = 0
        self.lookups = 0
        self.updates = 0

    # -- ownership ------------------------------------------------------------

    def claim(self, extent_index: int, server_id: int) -> MapEntry:
        """Assign a fresh extent to *server_id*."""
        if extent_index in self._entries:
            raise AddressError(f"extent {extent_index} already claimed")
        self.generation += 1
        entry = MapEntry(extent_index, server_id, self.generation)
        self._entries[extent_index] = entry
        self.updates += 1
        return entry

    def release(self, extent_index: int) -> None:
        if extent_index not in self._entries:
            raise AddressError(f"extent {extent_index} not claimed")
        del self._entries[extent_index]
        self.updates += 1

    def reassign(self, extent_index: int, new_server_id: int) -> MapEntry:
        """Move ownership (the commit point of extent migration)."""
        old = self._entries.get(extent_index)
        if old is None:
            raise MigrationError(f"cannot reassign unclaimed extent {extent_index}")
        self.generation += 1
        entry = MapEntry(extent_index, new_server_id, self.generation)
        self._entries[extent_index] = entry
        self.updates += 1
        return entry

    # -- lookups --------------------------------------------------------------

    def lookup(self, addr: GlobalAddress | int) -> MapEntry:
        """Resolve the owning server of a logical address."""
        self.lookups += 1
        extent_index = self.geometry.extent_index(addr)
        entry = self._entries.get(extent_index)
        if entry is None:
            raise AddressError(f"address {int(addr):#x} is not backed by any extent")
        return entry

    def __contains__(self, extent_index: int) -> bool:
        """Whether *extent_index* is claimed (no lookup is counted)."""
        return extent_index in self._entries

    def lookup_extent(self, extent_index: int) -> MapEntry:
        self.lookups += 1
        entry = self._entries.get(extent_index)
        if entry is None:
            raise AddressError(f"extent {extent_index} is not claimed")
        return entry

    def owner(self, addr: GlobalAddress | int) -> int:
        return self.lookup(addr).server_id

    def extents_of(self, server_id: int) -> list[int]:
        return sorted(
            idx for idx, e in self._entries.items() if e.server_id == server_id
        )


class MapCache:
    """A server's cached copy of the global map (step-one TLB).

    Real deployments replicate the coarse map to every server so step
    one never crosses the fabric; staleness is caught by generation
    mismatch at the owner and repaired by re-fetching.  We model that
    protocol: :meth:`lookup` serves cached entries (counting hits),
    :meth:`note_stale` evicts after a rejected access.
    """

    def __init__(self, authoritative: GlobalMap) -> None:
        self._authoritative = authoritative
        self._cache: dict[int, MapEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, addr: GlobalAddress | int) -> MapEntry:
        extent_index = self._authoritative.geometry.extent_index(addr)
        entry = self._cache.get(extent_index)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = self._authoritative.lookup_extent(extent_index)
        self._cache[extent_index] = entry
        return entry

    def is_current(self, entry: MapEntry) -> bool:
        """Check a cached entry against the authoritative generation."""
        current = self._authoritative.lookup_extent(entry.extent_index)
        return current.generation == entry.generation

    def note_stale(self, extent_index: int) -> None:
        """Drop a cached entry after the owner rejected our access."""
        if self._cache.pop(extent_index, None) is not None:
            self.invalidations += 1
