"""DRAM device model: a bandwidth channel, a loaded-latency curve, a
capacity budget, and (optionally) real byte contents.

Performance experiments only need the channel and the curve; functional
tests (migration preserves data, erasure decoding reconstructs a crashed
server's bytes) also need contents, so the device carries a sparse
:class:`BackingStore` that materializes pages lazily.  Simulations of
multi-terabyte pools therefore cost memory proportional to the bytes the
test actually writes, not the configured capacity.
"""

from __future__ import annotations

import typing as _t

from repro.errors import AddressError, ConfigError
from repro.hw.specs import DeviceSpec
from repro.sim.fluid import Capacity, FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PAGE = 4096


class BackingStore:
    """Sparse byte store with zero-fill semantics.

    Pages (4 KiB) materialize on first write; reads of untouched ranges
    return zeros, matching freshly-mapped memory.
    """

    __slots__ = ("_pages", "bytes_written")

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self.bytes_written = 0

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store *data* at byte offset *addr*."""
        if addr < 0:
            raise AddressError(f"negative address {addr}")
        data = memoryview(data)
        self.bytes_written += len(data)
        pos = 0
        while pos < len(data):
            page_no, offset = divmod(addr + pos, _PAGE)
            take = min(_PAGE - offset, len(data) - pos)
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_no] = page
            page[offset : offset + take] = data[pos : pos + take]
            pos += take

    def read(self, addr: int, size: int) -> bytes:
        """Fetch *size* bytes at *addr* (zeros where never written)."""
        if addr < 0 or size < 0:
            raise AddressError(f"invalid read range ({addr}, {size})")
        out = bytearray(size)
        pos = 0
        while pos < size:
            page_no, offset = divmod(addr + pos, _PAGE)
            take = min(_PAGE - offset, size - pos)
            page = self._pages.get(page_no)
            if page is not None:
                out[pos : pos + take] = page[offset : offset + take]
            pos += take
        return bytes(out)

    def discard(self, addr: int, size: int) -> None:
        """Drop whole pages in [addr, addr+size) — models losing the
        contents when a server crashes or a range is freed."""
        first = (addr + _PAGE - 1) // _PAGE
        last = (addr + size) // _PAGE
        for page_no in range(first, last):
            self._pages.pop(page_no, None)

    def zero_range(self, addr: int, size: int) -> None:
        """Make [addr, addr+size) read as zeros without materializing
        pages: whole pages are dropped, partial edges are overwritten."""
        if size <= 0:
            return
        end = addr + size
        first_full = -(-addr // _PAGE)
        last_full = end // _PAGE
        for page_no in range(first_full, last_full):
            self._pages.pop(page_no, None)
        left_edge = min(first_full * _PAGE, end)
        if left_edge > addr and (addr // _PAGE) in self._pages:
            self.write(addr, bytes(left_edge - addr))
        right_edge = max(last_full * _PAGE, addr)
        if end > right_edge and (right_edge // _PAGE) in self._pages:
            self.write(right_edge, bytes(end - right_edge))

    def copy_to(self, dst: "BackingStore", src_addr: int, dst_addr: int, size: int) -> None:
        """Copy [src_addr, +size) into *dst* at *dst_addr*, touching only
        materialized source pages — a terabyte of untouched zeros copies
        in O(1)."""
        if size <= 0:
            return
        dst.zero_range(dst_addr, size)
        src_end = src_addr + size
        first = src_addr // _PAGE
        last = (src_end - 1) // _PAGE
        for page_no in range(first, last + 1):
            page = self._pages.get(page_no)
            if page is None:
                continue
            page_start = page_no * _PAGE
            lo = max(page_start, src_addr)
            hi = min(page_start + _PAGE, src_end)
            dst.write(dst_addr + (lo - src_addr), page[lo - page_start : hi - page_start])

    @property
    def resident_bytes(self) -> int:
        """Physical bytes currently materialized."""
        return len(self._pages) * _PAGE


class MemoryDevice:
    """One DRAM device (a server's DIMMs, or the physical pool's DIMMs)."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        spec: DeviceSpec,
        capacity_bytes: int,
        name: str = "",
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"device capacity must be positive, got {capacity_bytes}")
        self.engine = engine
        self.fluid = fluid
        self.spec = spec
        self.name = name or spec.name
        self.capacity_bytes = int(capacity_bytes)
        #: the bandwidth constraint every access to this device crosses
        self.channel = Capacity(f"{self.name}.chan", spec.bandwidth)
        self.latency_model = spec.latency_model()
        self.store = BackingStore()

    # -- performance ------------------------------------------------------------

    def loaded_latency(self) -> float:
        """Current latency in ns given the channel's instantaneous load."""
        return self.latency_model(self.channel.utilization)

    def transfer(self, size: float, rate_cap: float = float("inf"), tag: str = ""):
        """Move *size* bytes through this device alone (local access)."""
        return self.fluid.transfer([self.channel], size, rate_cap=rate_cap, tag=tag)

    # -- contents -------------------------------------------------------------

    def write_bytes(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store real contents (functional tests / small buffers)."""
        end = addr + len(data)
        if end > self.capacity_bytes:
            raise AddressError(
                f"write [{addr}, {end}) exceeds {self.name} capacity {self.capacity_bytes}"
            )
        self.store.write(addr, data)

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Fetch real contents."""
        if addr + size > self.capacity_bytes:
            raise AddressError(
                f"read [{addr}, {addr + size}) exceeds {self.name} capacity"
            )
        return self.store.read(addr, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryDevice {self.name} {self.capacity_bytes}B {self.spec.bandwidth}GB/s>"
