"""DRAM device model: a bandwidth channel, a loaded-latency curve, a
capacity budget, and (optionally) real byte contents.

Performance experiments only need the channel and the curve; functional
tests (migration preserves data, erasure decoding reconstructs a crashed
server's bytes) also need contents, so the device carries a sparse
:class:`BackingStore` that materializes pages lazily.  Simulations of
multi-terabyte pools therefore cost memory proportional to the non-zero
bytes the test actually writes, not the configured capacity.
"""

from __future__ import annotations

import typing as _t
from itertools import repeat

from repro.errors import AddressError, ConfigError
from repro.hw.specs import DeviceSpec
from repro.sim.fluid import Capacity, FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PAGE = 4096
_ZERO_PAGE = bytes(_PAGE)
_ZEROS = bytes(1 << 20)


def _all_zero(data: memoryview) -> bool:
    """``startswith`` against a zero buffer is a memcmp: the check runs
    at C speed, one megabyte at a time."""
    step = len(_ZEROS)
    if len(data) <= step:
        return _ZEROS.startswith(data)
    return all(_ZEROS.startswith(data[pos : pos + step]) for pos in range(0, len(data), step))


class BackingStore:
    """Sparse byte store with zero-fill semantics.

    Pages (4 KiB) materialize on the first non-zero write; all-zero
    writes, :meth:`zero_range` and :meth:`discard` drop pages instead.
    Reads of untouched or zeroed ranges return zeros, matching
    freshly-mapped memory.  Dropping and copying walk the resident pages
    when there are fewer of them than pages in the range.
    """

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store *data* at byte offset *addr*."""
        if addr < 0:
            raise AddressError(f"negative address {addr}")
        data = memoryview(data)
        if _all_zero(data):
            self.zero_range(addr, len(data))
            return
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
        if not self._pages or size == 0:
            return bytes(size)
        first, head = divmod(addr, _PAGE)
        last = (addr + size - 1) // _PAGE
        joined = b"".join(map(self._pages.get, range(first, last + 1), repeat(_ZERO_PAGE)))
        return joined[head : head + size]

    def _resident(self, first: int, last: int) -> list[int]:
        """Resident page numbers in [first, last], ascending, found by
        walking whichever is shorter: the range or the resident set."""
        if last - first < len(self._pages):
            return [p for p in range(first, last + 1) if p in self._pages]
        return sorted(p for p in self._pages if first <= p <= last)

    def _drop(self, first: int, last: int) -> None:
        for page_no in self._resident(first, last):
            del self._pages[page_no]

    def discard(self, addr: int, size: int) -> None:
        """Drop whole pages in [addr, addr+size) — models losing the
        contents when a server crashes or a range is freed.  A crash
        therefore costs O(resident pages), not O(capacity)."""
        self._drop(-(-addr // _PAGE), (addr + size) // _PAGE - 1)

    def zero_range(self, addr: int, size: int) -> None:
        """Make [addr, addr+size) read as zeros without materializing
        pages: whole pages are dropped, partial edges are overwritten."""
        if size <= 0 or not self._pages:
            return
        end = addr + size
        self._drop(-(-addr // _PAGE), end // _PAGE - 1)
        # a full edge page is already gone, so only partial ones remain
        for page_no in {addr // _PAGE, (end - 1) // _PAGE}:
            page = self._pages.get(page_no)
            if page is not None:
                lo = max(addr - page_no * _PAGE, 0)
                hi = min(end - page_no * _PAGE, _PAGE)
                page[lo:hi] = _ZERO_PAGE[lo:hi]

    def copy_to(self, dst: "BackingStore", src_addr: int, dst_addr: int, size: int) -> None:
        """Copy [src_addr, +size) into *dst* at *dst_addr*, touching only
        materialized source pages — a terabyte of untouched zeros copies
        in O(1).  Like ``memmove``, the source is read in full before the
        destination is zeroed, so an overlapping copy within one store
        keeps its bytes."""
        if size <= 0:
            return
        src_end = src_addr + size
        chunks: list[tuple[int, bytearray]] = []
        for page_no in self._resident(src_addr // _PAGE, (src_end - 1) // _PAGE):
            page = self._pages[page_no]
            page_start = page_no * _PAGE
            lo = max(page_start, src_addr)
            hi = min(page_start + _PAGE, src_end)
            chunks.append((dst_addr + (lo - src_addr), page[lo - page_start : hi - page_start]))
        dst.zero_range(dst_addr, size)
        for addr, data in chunks:
            dst.write(addr, data)

    @property
    def resident_bytes(self) -> int:
        """Physical bytes held: pages that a non-zero write touched and
        no zeroing or discard has dropped since."""
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

    def check_range(self, addr: int, size: int, write: bool) -> None:
        """Raise :class:`AddressError` if [addr, addr+size) runs past the
        device; every access checks this, whether or not it moves bytes."""
        end = addr + size
        if end > self.capacity_bytes:
            op = "write" if write else "read"
            raise AddressError(
                f"{op} [{addr}, {end}) exceeds {self.name} capacity {self.capacity_bytes}"
            )

    def write_bytes(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store real contents (functional tests / small buffers)."""
        self.check_range(addr, len(data), write=True)
        self.store.write(addr, data)

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Fetch real contents."""
        self.check_range(addr, size, write=False)
        return self.store.read(addr, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryDevice {self.name} {self.capacity_bytes}B {self.spec.bandwidth}GB/s>"
