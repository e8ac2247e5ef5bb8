"""Migration-stable buffer handles.

A buffer is a contiguous range of *logical* addresses.  Because the
addressing scheme translates logical -> physical in two steps (§5),
"migrating a buffer should not corrupt ... pointers" (§1): handles and
any aliases of them stay valid across migration; only the global map's
extent ownership changes underneath.
"""

from __future__ import annotations

import dataclasses

from repro.errors import AddressError
from repro.mem.layout import GlobalAddress, PageGeometry


@dataclasses.dataclass
class Buffer:
    """A handle to an allocated range of the pool's global address space."""

    base: GlobalAddress
    size: int
    geometry: PageGeometry
    name: str = ""
    freed: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AddressError(f"buffer size must be positive, got {self.size}")
        if self.base.value % self.geometry.extent_bytes != 0:
            raise AddressError("buffers are extent-aligned by construction")

    # -- geometry ------------------------------------------------------------

    @property
    def end(self) -> int:
        return self.base.value + self.size

    def _check_range(self, offset: int, length: int) -> None:
        if self.freed:
            raise AddressError(f"buffer {self.name or hex(self.base.value)} was freed")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise AddressError(
                f"range [{offset}, {offset + length}) outside buffer of {self.size} bytes"
            )

    def slice_addresses(self, offset: int, length: int) -> tuple[GlobalAddress, int]:
        """(address, length) for a validated sub-range — what the data
        path consumes."""
        self._check_range(offset, max(length, 1) if length else 0)
        return self.base + offset, length

    def shards(self, parts: int) -> list[tuple[int, int]]:
        """Split the buffer into *parts* near-equal (offset, length)
        shards — how the microbenchmark divides the vector over cores."""
        if parts <= 0:
            raise AddressError(f"parts must be positive, got {parts}")
        quotient, remainder = divmod(self.size, parts)
        out: list[tuple[int, int]] = []
        offset = 0
        for i in range(parts):
            length = quotient + (1 if i < remainder else 0)
            out.append((offset, length))
            offset += length
        return out

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"0x{self.base.value:x}"
        state = " FREED" if self.freed else ""
        return f"<Buffer {label} {self.size}B{state}>"
