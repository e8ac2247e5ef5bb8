"""Address-space geometry: global addresses, extents, regions.

The logical pool presents "a load-store interface on a global address
space" (§3.2).  Names used throughout:

* **logical address** — a position in the pool's global address space;
  stable across migration (the whole point of the scheme).
* **physical location** — (server, offset-within-server-DRAM); changes
  when a buffer migrates.
* **extent** — the coarse translation granule: a naturally-aligned,
  fixed-size slab of logical address space owned by exactly one server
  at a time.  The global map works at extent granularity; page tables
  refine within the extent.
* **region** — a carve-out of a server's DRAM with a role: ``PRIVATE``
  (local system state — OS, heaps, stacks), ``SHARED`` (part of the
  disaggregated pool), or ``COHERENT`` (the few GBs of cache-coherent
  shared memory for synchronization, §3.2).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import AddressError, ConfigError
from repro.units import mib


class RegionKind(enum.Enum):
    """Role of a server-DRAM carve-out."""

    PRIVATE = "private"
    SHARED = "shared"
    COHERENT = "coherent"


@dataclasses.dataclass(frozen=True)
class Region:
    """A contiguous carve-out [start, start+size) of one server's DRAM."""

    server_id: int
    kind: RegionKind
    start: int
    size: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.size < 0:
            raise ConfigError(f"bad region bounds ({self.start}, {self.size})")

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclasses.dataclass(frozen=True)
class GlobalAddress:
    """A logical address in the pool's global address space."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise AddressError(f"negative global address {self.value}")

    def __add__(self, offset: int) -> "GlobalAddress":
        return GlobalAddress(self.value + offset)

    def __int__(self) -> int:
        return self.value

    def extent_index(self, extent_bytes: int) -> int:
        return self.value // extent_bytes

    def __repr__(self) -> str:
        return f"GA(0x{self.value:x})"


@dataclasses.dataclass(frozen=True)
class PageGeometry:
    """Page and extent sizes for the two translation steps.

    Defaults: 2 MiB pages (huge pages — fine enough to bound false
    sharing and migration cost, coarse enough to keep tables small) in
    256 MiB extents (coarse enough that the globally replicated first
    step stays tiny: a 100 TB pool needs ~400 K entries).
    """

    page_bytes: int = mib(2)
    extent_bytes: int = mib(256)

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.extent_bytes <= 0:
            raise ConfigError("page and extent sizes must be positive")
        if self.extent_bytes % self.page_bytes != 0:
            raise ConfigError(
                f"extent size {self.extent_bytes} must be a multiple of "
                f"page size {self.page_bytes}"
            )

    @property
    def pages_per_extent(self) -> int:
        return self.extent_bytes // self.page_bytes

    def page_index(self, addr: GlobalAddress | int) -> int:
        return int(addr) // self.page_bytes

    def page_offset(self, addr: GlobalAddress | int) -> int:
        return int(addr) % self.page_bytes

    def extent_index(self, addr: GlobalAddress | int) -> int:
        return int(addr) // self.extent_bytes

    def extents_covering(self, addr: GlobalAddress | int, size: int) -> range:
        """Indices of every extent overlapping [addr, addr+size)."""
        if size <= 0:
            return range(0)
        first = self.extent_index(addr)
        last = (int(addr) + size - 1) // self.extent_bytes
        return range(first, last + 1)
